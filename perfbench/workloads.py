"""The benchmark's three workloads and their untraced timed rounds.

A workload is a fixed tuple of `simulate` calls (Call). Each call knows
the runs (Run) it performs, with the run seeds `cli.run_sweep` gives
them (mix_seed(base, point, run), as the program's README documents), so
the timed rounds, the traced run and the checks all see the same
simulations. Base seeds come from the benchmark seed through derive();
the program only receives them as arguments.

A round is one pass over every operation of a workload; all rounds of a
run are identical, so each round's outputs must repeat the first's. A
round times reference chunks (gauge.py) between its program work: before
each run and every GAUGE_ARRIVALS arrivals inside it, or before and after
each `simulate` call; each operation's host time goes on the nominal
clock of its own chunks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from time import perf_counter

from cdnsim import cli
from cdnsim.engine import mix_seed, run_simulation
from cdnsim.metrics import aggregate_runs
from cdnsim.model import SimConfig, StrategySpec, default_config

import checks
from gauge import Gauge

WORKERS = 2  # process-pool size of the sweep calls; the reference machine has 2 cores

# Acceptance criterion 5's trade-off grids, per (cache size, family).
GRIDS = {
    (2, "pss"): (0.0, 0.25, 0.5, 0.75, 1.0),
    (2, "wmc"): (1.0, 0.75, 0.5, 0.25, 0.0),
    (2, "mcs"): (1, 2, 3, 4),
    (8, "pss"): (0.0, 0.25, 0.5, 0.75, 1.0),
    (8, "wmc"): (1.0, 0.75, 0.5, 0.25, 0.0),
    (8, "mcs"): (1, 2, 4, 8),
    (70, "pss"): (0.0, 0.25, 0.5, 0.75, 1.0),
    (70, "wmc"): (1.0, 0.97, 0.9, 0.75, 0.5, 0.0),
    (70, "mcs"): (1, 2, 3, 4, 8, 12, 16),
}
SWEEP_RUNS = 2
SWEEP_EVENTS = 10_000
SWEEP_WARMUP = 1_000
# Arrivals between two reference chunks inside a steady run.
GAUGE_ARRIVALS = 1000
# Reference chunks before, and again after, each `simulate` call of a sweep.
GAUGE_CHUNKS_AROUND_CALL = 5
# Single-arrival runs per set-up block; a block follows every operation of
# the timed rounds (outside their timing), so set-up is sampled throughout.
SETUP_RUNS_PER_BLOCK = 10


def derive(seed: int, *labels) -> int:
    """A 63-bit seed from the benchmark seed and labels. The benchmark's own
    hash, so a change to the program's seeding cannot change its inputs."""
    digest = hashlib.blake2b(repr((seed,) + labels).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


@dataclass(frozen=True)
class Run:
    cfg: SimConfig
    spec: StrategySpec
    seed: int

    @property
    def name(self) -> str:
        return f"{self.spec} M={self.cfg.cache_size} seed={self.seed}"


@dataclass(frozen=True)
class Call:
    """One `simulate` call: a strategy family over ascending parameters
    at one configuration, n_runs runs per point. A traced call has one
    point and one run and also writes --trace and --dump-placement."""

    key: str
    cfg: SimConfig
    family: str
    params: tuple
    n_runs: int
    base: int
    traced: bool = False

    @property
    def points(self) -> list[tuple[object, list[Run]]]:
        return [
            (p, [Run(self.cfg, StrategySpec(self.family, p), mix_seed(self.base, i, r))
                 for r in range(self.n_runs)])
            for i, p in enumerate(self.params)
        ]

    def path(self, out_dir: Path, kind: str) -> Path:
        return out_dir / f"{self.key}.{kind}"

    def write_config(self, out_dir: Path) -> None:
        c = self.cfg
        rates = set(c.arrival_rates)
        if len(rates) != 1:
            raise ValueError("a config file here carries one shared arrival rate")
        text = (f"n_servers = {c.n_servers}\nn_users = {c.n_users}\nn_files = {c.n_files}\n"
                f"cache_size = {c.cache_size}\nhorizon_events = {c.horizon_events}\n"
                f"warmup_events = {c.warmup_events}\nlattice_side = {c.lattice_side}\n"
                f"zipf_beta = {c.zipf_beta!r}\narrival_rate = {rates.pop()!r}\n"
                f"service = {c.service.kind}:{c.service.value!r}\n")
        self.path(out_dir, "cfg").write_text(text, encoding="utf-8")

    def argv(self, out_dir: Path) -> list[str]:
        if len(self.params) == 1:
            strategy = ["--strategy", str(StrategySpec(self.family, self.params[0]))]
        else:
            strategy = ["--strategy", self.family,
                        "--sweep", ",".join(format(p, "g") for p in self.params)]
        argv = ["--config", str(self.path(out_dir, "cfg")), *strategy,
                "--runs", str(self.n_runs), "--seed", str(self.base),
                "--workers", str(WORKERS), "--out", str(self.path(out_dir, "csv"))]
        if self.traced:
            argv += ["--trace", str(self.path(out_dir, "trace")),
                     "--dump-placement", str(self.path(out_dir, "placement"))]
        return argv

    def outputs(self, out_dir: Path) -> dict[str, str]:
        kinds = ("csv", "trace", "placement") if self.traced else ("csv",)
        return {k: self.path(out_dir, k).read_text(encoding="utf-8") for k in kinds}


def point_aggregate(call: Call, param, results):
    """run_sweep's aggregate of one point, context columns filled."""
    return replace(aggregate_runs(results, param=param), strategy=call.family,
                   cache_size=call.cfg.cache_size, zipf_beta=call.cfg.zipf_beta,
                   events=call.cfg.horizon_events)


def attempt(fn, *args, **kwargs):
    """Call fn(*args, **kwargs) as one operation: (value, problems, host
    seconds), a raise being the operation's problem."""
    t0 = perf_counter()
    try:
        value, problems = fn(*args, **kwargs), []
    except Exception as err:  # a raising operation is a failed one, not a crash
        value, problems = None, [f"raised {err!r}"]
    return value, problems, perf_counter() - t0


def gauge_hook(gauge: Gauge, every: int):
    """A decision_hook that times a reference chunk after every `every`
    decisions, and a function that gives the host seconds those chunks
    took. The hook costs about 75 ns an arrival, about 1 % of a
    `two_choices` arrival."""
    count = 0
    spent = 0.0

    def hook(t, user, file_index, cands, queues, decision):
        nonlocal count, spent
        count += 1
        if count == every:
            count = 0
            spent += gauge.sample()

    return hook, lambda: spent


def run_cli(argv: list[str]) -> tuple[list[str], float]:
    """cli.main with its stderr captured: problems if it raises or does not
    exit 0, and its host seconds."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status, problems, seconds = attempt(cli.main, argv)
    if status not in (0, None):
        problems = [f"simulate exited {status}: {err.getvalue().strip()}"]
    return problems, seconds


class Tally:
    """Operations attempted and failed; an operation fails if it raises or
    a check on its output finds a problem."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


class Repeats:
    """Each operation's output digest in the first round; later rounds must
    give the same. The digests of the first round make the fingerprint."""

    def __init__(self) -> None:
        self.first: dict[str, str] = {}

    def same(self, name: str, value: str) -> list[str]:
        if self.first.setdefault(name, value) != value:
            return ["output differs from the first round's"]
        return []

    def fingerprint(self) -> str:
        return digest(*self.first.items())[:16]


def result_digest(result) -> str:
    return digest(*astuple(result))


def outputs_digest(outputs: dict[str, str]) -> str:
    return digest(*(text.encode() for text in outputs.values()))


class Workload:
    """Shared part of the steady and the sweep workloads."""

    via_cli = False  # the operations are `simulate` calls, not run_simulation calls

    def __init__(self, name: str, seed: int, calls: tuple[Call, ...]):
        self.name = name
        self.seed = seed
        self.calls = calls

    @property
    def runs(self) -> list[Run]:
        return [run for call in self.calls for _, runs in call.points for run in runs]

    @property
    def arrivals(self) -> int:
        return sum(run.cfg.horizon_events for run in self.runs)

    @property
    def trace_run(self) -> Run:
        """The run whose per-arrival trace cost engine.trace_s reports."""
        traced = [c for c in self.calls if c.traced] or self.calls[:1]
        return traced[0].points[0][1][0]

    def run_check(self, run: Run, result) -> list[str]:
        return []

    def call_check(self, call: Call, outputs: dict[str, str]) -> list[str]:
        return []

    def prepare(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for call in self.calls:
            call.write_config(out_dir)

    def setup_block(self, block: int) -> list[float]:
        """Nominal seconds of a run cut to a single arrival, the block's
        mean for each configuration and strategy family of the workload
        (the family's parameter does not change the set-up work), with a
        reference chunk timed before each run."""
        cases = {}
        for r in self.runs:
            cases.setdefault((replace(r.cfg, horizon_events=1, warmup_events=0), r.spec.kind),
                             r.spec)
        gauge = Gauge()
        took = [0.0] * len(cases)
        repeats = max(1, SETUP_RUNS_PER_BLOCK // len(cases))
        for i in range(repeats):
            seed = derive(self.seed, self.name, "setup", block, i)
            for j, ((cfg, _), spec) in enumerate(cases.items()):
                gauge.sample()
                t0 = perf_counter()
                run_simulation(cfg, spec, seed)
                took[j] += perf_counter() - t0
        return [gauge.nominal(t / repeats) for t in took]

    def round(self, out_dir: Path, tally: Tally, repeats: Repeats, after_op=None
              ) -> tuple[float, float]:
        """One pass over every operation, calling after_op() after each;
        returns the host and the nominal seconds spent in the program
        (checks and reference chunks excluded)."""
        raise NotImplementedError

    def after_rounds(self, out_dir: Path, tally: Tally) -> None:
        """Checks made once per benchmark run, after the timed rounds."""


class SteadyWorkload(Workload):
    """Long runs on a stable system, called through run_simulation."""

    def __init__(self, name, seed, calls, *, queries, cost=None, supermarket_choices=None):
        super().__init__(name, seed, calls)
        self.queries = queries
        self.cost = cost
        cfg = calls[0].cfg
        load = sum(cfg.arrival_rates) * cfg.service.mean() / cfg.n_servers
        self.target = (checks.supermarket_mean_jobs(load, supermarket_choices)
                       if supermarket_choices else None)

    def round(self, out_dir, tally, repeats, after_op=None):
        busy = nominal = 0.0
        for run in self.runs:
            gauge = Gauge()
            gauge.sample()
            hook, gauged = gauge_hook(gauge, GAUGE_ARRIVALS)
            result, problems, seconds = attempt(run_simulation, run.cfg, run.spec, run.seed,
                                                decision_hook=hook)
            seconds -= gauged()
            busy += seconds
            nominal += gauge.nominal(seconds)
            if not problems:
                problems = self.run_check(run, result) + repeats.same(
                    run.name, result_digest(result))
            tally.record(run.name, problems)
            if after_op:
                after_op()
        return busy, nominal

    def run_check(self, run, result):
        problems = checks.steady_run(result, queries=self.queries,
                                     total_rate=sum(run.cfg.arrival_rates),
                                     n_servers=run.cfg.n_servers, cost=self.cost)
        if self.target is not None:
            problems += checks.supermarket(result, self.target)
        return problems


class SweepWorkload(Workload):
    """Many short runs through `simulate` sweeps on a process pool."""

    via_cli = True

    def round(self, out_dir, tally, repeats, after_op=None):
        busy = nominal = 0.0
        for call in self.calls:
            gauge = Gauge()
            for _ in range(GAUGE_CHUNKS_AROUND_CALL):
                gauge.sample()
            problems, seconds = run_cli(call.argv(out_dir))
            for _ in range(GAUGE_CHUNKS_AROUND_CALL):
                gauge.sample()
            busy += seconds
            nominal += gauge.nominal(seconds)
            if not problems:
                outputs = call.outputs(out_dir)
                problems = self.call_check(call, outputs) + repeats.same(
                    call.key, outputs_digest(outputs))
            tally.record(f"simulate {call.key}", problems)
            if after_op:
                after_op()
        return busy, nominal

    def call_check(self, call, outputs):
        c = call.cfg
        problems = checks.sweep_csv(outputs["csv"], family=call.family, params=call.params,
                                    cache_size=c.cache_size, n_runs=call.n_runs,
                                    events=c.horizon_events, n_servers=c.n_servers,
                                    n_files=c.n_files)
        if call.traced and not problems:
            row = checks.read_csv(outputs["csv"])[0]
            problems = checks.traced_point(
                outputs["trace"], outputs["placement"], family=call.family,
                param=call.params[0], events=c.horizon_events, warmup=c.warmup_events,
                row_avg_queries=row["avg_queries"])
        return problems

    def after_rounds(self, out_dir, tally):
        """Recompute one sampled sweep point serially in this process; its
        CSV row must equal the pooled sweep's."""
        points = [(call, i, p, runs) for call in self.calls if not call.traced
                  for i, (p, runs) in enumerate(call.points)]
        call, i, param, runs = points[derive(self.seed, self.name, "recompute") % len(points)]
        name = f"serial recompute {call.key} point {i}"
        results, problems, _ = attempt(
            lambda: [run_simulation(r.cfg, r.spec, r.seed) for r in runs])
        if problems:
            tally.record(name, problems)
            return
        serial = cli.format_csv([point_aggregate(call, param, results)]).splitlines()[1]
        pooled = call.outputs(out_dir)["csv"].splitlines()[1 + i]
        tally.record(name, [] if serial == pooled else [f"row {serial!r} vs sweep {pooled!r}"])


def full_replication(seed: int) -> Workload:
    cfg = default_config(cache_size=70, horizon_events=100_000, warmup_events=10_000)
    base = derive(seed, "full_replication")
    calls = (Call("wmc", cfg, "wmc", (0.5,), 1, base),
             Call("minqueue", cfg, "minqueue", (None,), 1, base))
    return SteadyWorkload("full_replication", seed, calls, queries=100)


def two_choices(seed: int) -> Workload:
    cfg = default_config(cache_size=70, lattice_side=1,
                         horizon_events=200_000, warmup_events=20_000)
    calls = (Call("mcs2", cfg, "mcs", (2,), 2, derive(seed, "two_choices")),)
    return SteadyWorkload("two_choices", seed, calls, queries=2, cost=0.0,
                          supermarket_choices=2)


def tradeoff_sweep(seed: int) -> Workload:
    calls = []
    for (m, family), params in GRIDS.items():
        cfg = default_config(cache_size=m, horizon_events=SWEEP_EVENTS,
                             warmup_events=SWEEP_WARMUP)
        calls.append(Call(f"M{m}_{family}", cfg, family, tuple(sorted(params)),
                          SWEEP_RUNS, derive(seed, "tradeoff_sweep", m, family)))
    cfg = default_config(cache_size=8, horizon_events=SWEEP_EVENTS, warmup_events=SWEEP_WARMUP)
    calls.append(Call("traced_M8_wmc", cfg, "wmc", (0.5,), 1,
                      derive(seed, "tradeoff_sweep", "traced"), traced=True))
    return SweepWorkload("tradeoff_sweep", seed, tuple(calls))


WORKLOADS = {
    "full_replication": full_replication,
    "two_choices": two_choices,
    "tradeoff_sweep": tradeoff_sweep,
}
