"""Tests of the benchmark itself: each output check can fail, and a failed
check is counted as a failed operation. Run with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from cdnsim.model import RunResult, default_config  # noqa: E402
from cdnsim.oracle import supermarket_mean_queue  # noqa: E402


def steady_result(cfg, seed, *, queries, jobs, cost=0.0):
    """A RunResult that obeys Little's law on cfg and is not overloaded."""
    wait = jobs * cfg.n_servers / sum(cfg.arrival_rates)
    return RunResult(avg_cost=cost, avg_wait=wait, avg_queries=queries, avg_jobs=jobs,
                     counted_events=cfg.horizon_events - cfg.warmup_events,
                     seed_used=seed, wait_growth=1.0)


def one_round(workload, out_dir) -> workloads.Tally:
    tally = workloads.Tally()
    workload.prepare(out_dir)
    workload.round(out_dir, tally, workloads.Repeats())
    return tally


@pytest.mark.parametrize("queries, failed", [(100.0, 0), (99.0, 2)])
def test_wrong_query_count_fails_the_run(monkeypatch, tmp_path, queries, failed):
    monkeypatch.setattr(workloads, "run_simulation", lambda cfg, spec, seed, **hooks: steady_result(
        cfg, seed, queries=queries, jobs=0.95))
    tally = one_round(workloads.full_replication(1), tmp_path)
    assert (tally.attempted, tally.failed) == (2, failed)
    assert all("avg_queries 99.0" in p for p in tally.problems)


def test_supermarket_series_matches_known_values():
    assert checks.supermarket_mean_jobs(0.9, 1) == pytest.approx(9.0)
    assert checks.supermarket_mean_jobs(0.9, 2) == pytest.approx(2.3527, abs=1e-4)
    for load in (0.5, 0.9, 0.99):
        for d in (2, 3, 5):
            assert checks.supermarket_mean_jobs(load, d) == pytest.approx(
                supermarket_mean_queue(load, d), rel=1e-9)


@pytest.mark.parametrize("choices, failed", [(2, 0), (3, 2)])
def test_wrong_supermarket_target_fails_the_run(monkeypatch, tmp_path, choices, failed):
    jobs = checks.supermarket_mean_jobs(0.9, 2)
    monkeypatch.setattr(workloads, "run_simulation", lambda cfg, spec, seed, **hooks: steady_result(
        cfg, seed, queries=2.0, jobs=jobs))
    workload = workloads.two_choices(1)
    workload.target = checks.supermarket_mean_jobs(0.9, choices)
    tally = one_round(workload, tmp_path)
    assert (tally.attempted, tally.failed) == (2, failed)


def test_trace_line_on_a_server_without_the_file_fails_the_call(tmp_path):
    cfg = default_config(cache_size=8, horizon_events=2000, warmup_events=200)
    call = workloads.Call("traced", cfg, "wmc", (0.5,), 1, 7, traced=True)
    workload = workloads.SweepWorkload("traced", 1, (call,))
    assert one_round(workload, tmp_path).failed == 0

    outputs = call.outputs(tmp_path)
    holdings = checks.parse_placement(outputs["placement"])
    lines = outputs["trace"].splitlines()
    fields = lines[5].split(",")
    fields[3] = str(next(k for k, files in enumerate(holdings) if int(fields[2]) not in files))
    lines[5] = ",".join(fields)
    outputs["trace"] = "\n".join(lines) + "\n"
    tally = workloads.Tally()
    tally.record("simulate traced", workload.call_check(call, outputs))
    assert tally.failed == 1
    assert f"trace line 5: server {fields[3]} does not hold file {fields[2]}" in tally.problems[0]


def test_sweep_rows_follow_documented_query_counts():
    text = ("strategy,param,M,beta,n_runs,events,avg_cost,ci95_cost,avg_wait,ci95_wait,avg_queries\n"
            "mcs,1,70,0,2,100,1,0,1,0,1\nmcs,2,70,0,2,100,1,0,1,0,3\n")
    problems = checks.sweep_csv(text, family="mcs", params=(1, 2), cache_size=70, n_runs=2,
                                events=100, n_servers=100, n_files=70)
    assert problems == ["row mcs:2 M=70: avg_queries 3.0 expected 2"]


def test_a_round_that_repeats_differently_is_flagged():
    repeats = workloads.Repeats()
    assert repeats.same("op", "a") == []
    assert repeats.same("op", "a") == []
    assert repeats.same("op", "b") != []


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two_choices", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
