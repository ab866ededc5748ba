"""The traced run: per-layer numbers for one workload.

Every run of the workload is made four ways, one after the other:

1. untraced: run_simulation as a user calls it (the twin for the checks
   and for the tracing overhead);
2. traced: the same run split at the layer boundaries, a span around
   each public call (layout, cost matrix, placement, candidate table,
   strategy binding) and around run_simulation with the cost matrix and
   allocation injected;
3. recorded: run_simulation with a decision_hook that counts decisions,
   queries and queue lengths, keeps the first touch of every memo slot
   and a periodic sample of (user, file, queues), and on workloads that
   ask for it checks every choice against its strategy's rule;
4. replayed: the first touches through a freshly bound strategy, cold
   and then warm, and the sample, warm.

Then every `simulate` call of the workload goes through cli.main on the
process pool, and its CSV must equal format_csv of the untraced runs'
aggregates. Spans are kept in memory and written to spans.jsonl.
"""

from __future__ import annotations

import io
from pathlib import Path
from random import Random
from statistics import median
from time import perf_counter

from cdnsim.cli import format_csv
from cdnsim.engine import run_simulation, substream
from cdnsim.popularity import candidate_table, proportional_placement, zipf_profile
from cdnsim.strategies import bind_strategy
from cdnsim.topology import manhattan_cost_matrix, random_lattice_layout

import checks
from spans import Spans
from workloads import (WORKERS, Repeats, Tally, Workload, outputs_digest, point_aggregate,
                       result_digest, run_cli)

SAMPLE_SIZE = 5000  # recorded decisions per run for the warm replay
# Arrivals over which the trace point's extra cost is timed: the point is
# run in untraced and traced pairs until they cover this many.
TRACE_POINT_ARRIVALS = 50_000


class DecisionRecorder:
    """decision_hook of the recorded run."""

    def __init__(self, spec, cands_by_file, cost_rows, check_choices: bool, stride: int):
        slot_of: dict[tuple, int] = {}
        self.slot = [slot_of.setdefault(c, len(slot_of)) for c in cands_by_file]
        self.memoized = spec.kind != "minqueue"  # bind_strategy keeps no memo for minqueue
        self.spec = spec
        self.cost_rows = cost_rows
        self.check_choices = check_choices
        self.stride = stride
        self.touched: set[tuple[int, int]] = set()
        self.first: list[tuple] = []
        self.sample: list[tuple] = []
        self.decisions = self.queries = self.candidates = self.max_jobs = self.bad = 0

    def __call__(self, t, user, file_index, cands, queues, decision) -> None:
        self.decisions += 1
        self.queries += decision.queries_used
        self.candidates += len(cands)
        jobs = queues[decision.server] + 1
        if jobs > self.max_jobs:
            self.max_jobs = jobs
        key = (user, self.slot[file_index])
        if self.memoized and key not in self.touched:
            self.touched.add(key)
            self.first.append((user, file_index, list(queues)))
        if self.decisions % self.stride == 0:
            self.sample.append((user, file_index, list(queues)))
        if self.check_choices and not checks.decision_ok(
                self.spec.kind, self.spec.param, cands, self.cost_rows[user], queues,
                decision.server):
            self.bad += 1


def _replay(decide, decisions) -> float:
    t0 = perf_counter()
    for user, file_index, queues in decisions:
        decide(user, file_index, queues)
    return perf_counter() - t0


def traced_run(workload: Workload, out_dir: Path, tally: Tally, *, check_choices: bool
               ) -> tuple[dict[str, tuple[float, str]], Repeats]:
    """Per-layer metrics of one pass over the workload, as name -> (value, unit),
    and the output digests that make the workload's fingerprint."""
    spans = Spans()
    repeats = Repeats()
    untraced_s = 0.0
    results = {}
    decisions = queries = candidates = prep_calls = max_jobs = 0
    decide_s = prep_s = 0.0
    trace_s = 0.0
    trace_text = None
    workload.prepare(out_dir)

    for run in workload.runs:
        cfg, spec, seed = run.cfg, run.spec, run.seed
        with spans.span("run", run=run.name):
            t0 = perf_counter()
            plain = run_simulation(cfg, spec, seed)
            untraced_s += perf_counter() - t0
            results[run] = plain
            problems = workload.run_check(run, plain)
            if not workload.via_cli:
                repeats.same(run.name, result_digest(plain))

            with spans.span("traced"):
                with spans.span("topology.layout"):
                    layout = random_lattice_layout(cfg.n_users, cfg.n_servers, cfg.lattice_side,
                                                   substream(seed, "layout"))
                with spans.span("topology.cost_matrix"):
                    matrix = manhattan_cost_matrix(layout)
                with spans.span("popularity.placement"):
                    allocation = proportional_placement(
                        zipf_profile(cfg.n_files, cfg.zipf_beta), cfg.n_servers,
                        cfg.cache_size, substream(seed, "placement"))
                with spans.span("popularity.candidate_table"):
                    cands = candidate_table(allocation)
                rows = [list(r) for r in matrix.entries]
                with spans.span("strategies.bind"):
                    bind_strategy(spec, rows, cands, cfg.n_users, cfg.n_files,
                                  substream(seed, "strategy"))
                with spans.span("engine.run"):
                    traced = run_simulation(cfg, spec, seed, cost_matrix=matrix,
                                            allocation=allocation)
            if traced != plain:
                problems.append("layer-split run differs from the untraced run")

            recorder = DecisionRecorder(spec, cands, rows, check_choices,
                                        max(1, cfg.horizon_events // SAMPLE_SIZE))
            with spans.span("engine.run_hooked"):
                hooked = run_simulation(cfg, spec, seed, cost_matrix=matrix,
                                        allocation=allocation, decision_hook=recorder)
            if hooked != plain:
                problems.append("run with decision_hook differs from the untraced run")
            if recorder.bad:
                problems.append(f"{recorder.bad} choices miss the {spec.kind} minimum")
            tally.record(run.name, problems)

            decide = bind_strategy(spec, rows, cands, cfg.n_users, cfg.n_files, Random(0))
            with spans.span("strategies.replay_first_cold"):
                cold = _replay(decide, recorder.first)
            with spans.span("strategies.replay_first_warm"):
                warm_first = _replay(decide, recorder.first)
            with spans.span("strategies.replay_sample_warm"):
                warm = _replay(decide, recorder.sample)
            prep_s += cold - warm_first
            decide_s += warm / len(recorder.sample) * recorder.decisions
            decisions += recorder.decisions
            queries += recorder.queries
            candidates += recorder.candidates
            prep_calls += len(recorder.first)
            max_jobs = max(max_jobs, recorder.max_jobs)

            if run == workload.trace_run:
                extra = []
                for _ in range(max(1, TRACE_POINT_ARRIVALS // cfg.horizon_events)):
                    t0 = perf_counter()
                    run_simulation(cfg, spec, seed)
                    untraced_point_s = perf_counter() - t0
                    sink = io.StringIO()
                    with spans.span("engine.run_trace_sink"):
                        t0 = perf_counter()
                        run_simulation(cfg, spec, seed, trace=sink)
                        extra.append(perf_counter() - t0 - untraced_point_s)
                trace_s = median(extra)
                trace_text = sink.getvalue()

    cli_s = 0.0
    for call in workload.calls:
        aggregates = []
        for param, runs in call.points:
            with spans.span("metrics.aggregate"):
                aggregates.append(point_aggregate(call, param, [results[r] for r in runs]))
        with spans.span("cli.format_csv"):
            text = format_csv(aggregates)
        with spans.span("cli.main", call=call.key):
            problems, seconds = run_cli(call.argv(out_dir))
        cli_s += seconds
        if not problems:
            outputs = call.outputs(out_dir)
            problems = workload.call_check(call, outputs)
            if outputs["csv"] != text:
                problems.append("simulate CSV differs from format_csv of the untraced runs")
            if call.traced and outputs["trace"] != trace_text:
                problems.append("simulate --trace file differs from run_simulation's trace")
            if workload.via_cli:
                repeats.same(call.key, outputs_digest(outputs))
        tally.record(f"simulate {call.key}", problems)
    spans.write(out_dir / "spans.jsonl")

    n_runs = len(workload.runs)
    traced_s = spans.total("traced")
    run_s = spans.total("engine.run")
    table_s = spans.total("popularity.candidate_table")
    bind_s = spans.total("strategies.bind")
    # engine.run_s includes the candidate table and binding the engine
    # builds for itself; self time leaves them out with decide and prep.
    self_s = run_s - decide_s - prep_s - table_s - bind_s
    events = 2 * decisions  # one arrival and one departure per request
    untraced_rate = workload.arrivals / untraced_s
    traced_rate = workload.arrivals / traced_s
    metrics = {
        "topology.layout_s": (spans.total("topology.layout"), "s"),
        "topology.cost_matrix_s": (spans.total("topology.cost_matrix"), "s"),
        "popularity.placement_s": (spans.total("popularity.placement"), "s"),
        "popularity.candidate_table_s": (table_s, "s"),
        "popularity.candidates_per_request": (candidates / decisions, "count"),
        "strategies.bind_s": (bind_s, "s"),
        "strategies.decisions": (decisions, "count"),
        "strategies.queries_per_decision": (queries / decisions, "count"),
        "strategies.decide_us": (decide_s / decisions * 1e6, "us"),
        "strategies.decide_s": (decide_s, "s"),
        "strategies.prep_calls": (prep_calls, "count"),
        "strategies.prep_s": (prep_s, "s"),
        "engine.run_s": (run_s, "s"),
        "engine.events": (events, "count"),
        "engine.self_s": (self_s, "s"),
        "engine.ns_per_event": (self_s / events * 1e9, "ns"),
        "engine.max_jobs": (max_jobs, "count"),
        "engine.mean_jobs": (sum(r.avg_jobs for r in results.values()) / n_runs, "count"),
        "engine.trace_s": (trace_s, "s"),
        "metrics.aggregate_s": (spans.total("metrics.aggregate"), "s"),
        "cli.wall_s": (cli_s, "s"),
        "cli.pool_overhead_s": (cli_s - untraced_s / WORKERS, "s"),
        "cli.worker_busy_ratio": (untraced_s / (WORKERS * cli_s), "ratio"),
        "cli.csv_s": (spans.total("cli.format_csv"), "s"),
        "trace.arrivals_per_s": (traced_rate, "arrivals/s"),
        "trace.overhead_pct": ((untraced_rate - traced_rate) / untraced_rate * 100, "%"),
    }
    return metrics, repeats
