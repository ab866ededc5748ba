"""Experiment driver: parameter sweeps, replications, CSV output.

The `simulate` command runs a strategy (or a parameter sweep of one)
over a grid of cache sizes, replicates each point with deterministic
per-run seeds drawn from cfg.base_seed, and writes one CSV row per
point in the sweep's order: cache sizes ascending, parameters ascending
within each. Every call goes through one driver, run_sweep; a --trace
or --dump-placement file is an output of a one-run sweep's run. Reruns
with identical flags produce byte-identical CSV files regardless of
--workers, which starts at most one process per run. The pool
machinery (concurrent.futures.process, multiprocessing) is imported
only when a sweep starts a pool, so `import cdnsim`, run_simulation and
every serial sweep leave it unloaded. Numbers in flags
are read by model.read_number and sweep names come from
model.STRATEGY_PARAMS, so the CLI shares the config file's error
messages and family table.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from random import Random

from .engine import mix_seed, run_inputs, run_simulation, substream
from .metrics import AggregateResult, aggregate_runs
from .model import (
    STRATEGY_PARAMS,
    ConfigError,
    SimConfig,
    StrategySpec,
    check_cost_matrix,
    default_config,
    load_config,
    read_number,
    strategy_param,
)
from .topology import load_cost_matrix

CSV_HEADER = "strategy,param,M,beta,n_runs,events,avg_cost,ci95_cost,avg_wait,ci95_wait,avg_queries"


@dataclass(frozen=True)
class SweepSpec:
    """A grid of (cache size, strategy parameter) points to simulate."""

    strategy: str
    params: tuple[float | None, ...]
    cache_sizes: tuple[int, ...]
    n_runs: int = 10

    def __post_init__(self) -> None:
        takes = strategy_param(self.strategy)
        if takes is None:
            if tuple(self.params) not in ((), (None,)):
                raise ConfigError(f"{self.strategy} takes no sweep parameter")
            object.__setattr__(self, "params", (None,))
        elif not self.params:
            raise ConfigError(f"sweep over {self.strategy} needs at least one {takes[0]} value")
        elif None in self.params:
            raise ConfigError(f"sweep over {self.strategy} needs a {takes[0]} value in every point")
        if not self.cache_sizes:
            raise ConfigError("sweep needs at least one cache size")
        # A repeated value would give rows that nothing in the CSV tells apart.
        if len(set(self.params)) != len(self.params):
            raise ConfigError(f"sweep repeats a {takes[0]} value: {self.params}")
        if len(set(self.cache_sizes)) != len(self.cache_sizes):
            raise ConfigError(f"sweep repeats a cache size: {self.cache_sizes}")
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")
        # Points are laid out params-ascending within cache-size-ascending;
        # seeds are tied to that canonical order.
        object.__setattr__(self, "cache_sizes", tuple(sorted(self.cache_sizes)))
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    def points(self) -> list[tuple[int, float | None]]:
        return [(m, p) for m in self.cache_sizes for p in self.params]


def _one_run(job):
    # One sweep run. The one run of a traced sweep also writes its trace and
    # placement files, opened here, where the run happens. If the placement
    # write or the run raises, the files opened here are closed by their
    # with blocks and then removed, so a failed run leaves none, as a failed
    # sweep leaves no CSV.
    cfg, strategy, run_seed, cost_matrix, allocation, trace, placement = job
    opened = []
    try:
        if placement is not None:
            # Materialize what the run would draw so the allocation can be dumped.
            cost_matrix, allocation = run_inputs(
                cfg, substream(run_seed, "layout"), substream(run_seed, "placement"),
                cost_matrix=cost_matrix, allocation=allocation,
            )
            with open(placement, "w", encoding="utf-8") as fh:
                opened.append(placement)
                for k, files in enumerate(allocation.server_files):
                    fh.write(f"{k}: {','.join(str(f) for f in sorted(files))}\n")
        with (nullcontext() if trace is None
              else open(trace, "w", encoding="utf-8", newline="")) as fh:
            if trace is not None:
                opened.append(trace)
            return run_simulation(cfg, strategy, run_seed, cost_matrix=cost_matrix,
                                  allocation=allocation, trace=fh)
    except BaseException:
        for path in opened:
            # Only a regular file is removed: a device such as /dev/null stays,
            # and a path given for both files is removed once.
            if os.path.isfile(path):
                os.remove(path)
        raise


def _sweep_runs(cfg: SimConfig, sweep: SweepSpec, cost_matrix, fixed_topology: bool,
                trace=None, placement=None):
    # (config, strategy, run seed, cost matrix, allocation, trace path,
    # placement path) of every run, in point order and run order within a
    # point. Every point is checked, and named in its error, before any
    # input is drawn or any file opened.
    setups = []
    for m, param in sweep.points():
        try:
            setups.append((replace(cfg, cache_size=m), StrategySpec(sweep.strategy, param)))
        except ConfigError as err:
            raise ConfigError(f"sweep point M={m} param={param}: {err}") from err
    placements = {}
    if fixed_topology:
        # One layout for the whole sweep and one placement per cache size,
        # both from cfg.base_seed; a given cost_matrix stands in for the layout.
        layout_rng = substream(cfg.base_seed, "sweep-layout")
        for m in sweep.cache_sizes:
            cost_matrix, placements[m] = run_inputs(
                replace(cfg, cache_size=m), layout_rng,
                Random(mix_seed(cfg.base_seed, "sweep-placement", m)), cost_matrix=cost_matrix,
            )
    elif cost_matrix is not None:
        check_cost_matrix(cost_matrix, cfg)
    return [
        (point_cfg, strategy, mix_seed(cfg.base_seed, point_idx, run_idx), cost_matrix,
         placements.get(point_cfg.cache_size), trace, placement)
        for point_idx, (point_cfg, strategy) in enumerate(setups)
        for run_idx in range(sweep.n_runs)
    ]


def run_sweep(
    cfg: SimConfig,
    sweep: SweepSpec,
    *,
    workers: int = 1,
    cost_matrix=None,
    fixed_topology: bool = False,
    _trace=None,
    _placement=None,
) -> list[AggregateResult]:
    """Simulate every sweep point n_runs times and aggregate each point.

    Run seeds are mix_seed(cfg.base_seed, point_index, run_index), so any
    point/run can be reproduced in isolation. By default topology and
    placement are redrawn inside every run from its own seed;
    fixed_topology freezes one layout for the whole sweep and one
    placement per cache size, both derived from cfg.base_seed. Results
    come in the sweep's point order. This is the one driver of every
    `simulate` call: the CLI's --trace and --dump-placement files
    (_trace, _placement) are outputs of a one-point, one-run sweep's
    run, written where that run happens.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if (_trace, _placement) != (None, None) and (len(sweep.points()) != 1 or sweep.n_runs != 1):
        raise ConfigError("--trace/--dump-placement need exactly one point and --runs 1")
    jobs = _sweep_runs(cfg, sweep, cost_matrix, fixed_topology, _trace, _placement)
    workers = min(workers, len(jobs))  # a fork pool starts every worker at once
    if workers > 1:
        # Imported here, so that no serial run loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_run, jobs, chunksize=1))
    else:
        results = [_one_run(job) for job in jobs]

    n = sweep.n_runs
    return [
        replace(aggregate_runs(results[i * n : (i + 1) * n], param=param),
                strategy=sweep.strategy, cache_size=m, zipf_beta=cfg.zipf_beta,
                events=cfg.horizon_events)
        for i, (m, param) in enumerate(sweep.points())
    ]


def _fmt(x: float) -> str:
    # -0.0 is falsy, so it prints as 0, the same as the 0.0 it equals.
    return format(x or 0.0, ".6g")


def format_csv(results) -> str:
    """Render aggregates as CSV text, one row per aggregate in the order given."""
    lines = [CSV_HEADER]
    for r in results:
        lines.append(
            ",".join(
                (
                    r.strategy or "",
                    "" if r.param is None else _fmt(r.param),
                    "" if r.cache_size is None else str(r.cache_size),
                    "" if r.zipf_beta is None else _fmt(r.zipf_beta),
                    str(r.n_runs),
                    "" if r.events is None else str(r.events),
                    _fmt(r.mean_cost),
                    _fmt(r.ci95_cost),
                    _fmt(r.mean_wait),
                    _fmt(r.ci95_wait),
                    _fmt(r.mean_queries),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _parse_sweep_values(text: str, family: str) -> tuple[float, ...]:
    body = text.strip()
    name, sep, rest = body.partition(":")
    if sep and not name.replace(".", "").replace("-", "").isdigit():
        # A parameterless family is rejected by SweepSpec.
        takes = strategy_param(family)
        if takes is not None and name.strip().lower() != takes[0]:
            raise ConfigError(
                f"sweep parameter {name.strip()!r} does not belong to {family} "
                f"(expected {takes[0]})"
            )
        body = rest
    return tuple(read_number(v, "--sweep") for v in body.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Sweep request-mapping strategies over cache sizes and write CSV results.",
    )
    parser.add_argument("--config", help="config file (flat key = value lines)")
    parser.add_argument(
        "--strategy",
        help="mincost | minqueue | pss[:zeta] | wmc[:alpha] | mcs[:delta]; "
        "bare family name combines with --sweep",
    )
    parser.add_argument(
        "--sweep",
        help="comma list of parameter values for the strategy family, "
        "optionally prefixed 'zeta:'/'alpha:'/'delta:'",
    )
    parser.add_argument("--cache-sizes", help="comma list of per-server cache sizes")
    parser.add_argument("--runs", type=int, default=10, help="replications per point (default 10)")
    parser.add_argument("--seed", type=int, help="base seed (default: config base_seed)")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    parser.add_argument("--trace", help="per-event trace file (single point, single run only)")
    parser.add_argument("--warmup", type=int, help="override warmup_events")
    parser.add_argument("--events", type=int, help="override horizon_events")
    parser.add_argument("--cost-matrix", help="headerless CSV cost matrix to use instead of a random lattice")
    parser.add_argument(
        "--fixed-topology",
        action="store_true",
        help="freeze one topology for the whole sweep instead of redrawing per run",
    )
    parser.add_argument(
        "--dump-placement",
        help="write the cache allocation as 'server: file,...' lines "
        "(single point, single run only)",
    )
    return parser


def _main_simulate(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.config is not None:
        cfg, cfg_strategy = load_config(args.config)
    else:
        cfg, cfg_strategy = default_config(), None

    flags = {"warmup_events": args.warmup, "horizon_events": args.events, "base_seed": args.seed}
    cfg = replace(cfg, **{key: value for key, value in flags.items() if value is not None})

    strategy = None
    if args.strategy is not None:
        text = args.strategy.strip().lower()
        if args.sweep is not None and ":" not in text and STRATEGY_PARAMS.get(text):
            kind = text  # bare parametric family, parameters come from --sweep
        else:
            strategy = StrategySpec.parse(text)
            kind = strategy.kind
    elif cfg_strategy is not None:
        strategy = cfg_strategy
        kind = strategy.kind
    else:
        raise ConfigError("no strategy given (use --strategy or a config 'strategy' line)")

    if args.sweep is not None:
        if strategy is not None and strategy.param is not None:
            raise ConfigError(
                f"--sweep conflicts with the fixed parameter in {strategy}; "
                f"use the bare family name"
            )
        params = _parse_sweep_values(args.sweep, kind)
    else:
        params = (strategy.param,)

    cache_sizes = (
        tuple(read_number(m, "--cache-sizes", int) for m in args.cache_sizes.split(","))
        if args.cache_sizes is not None else (cfg.cache_size,)
    )
    sweep = SweepSpec(strategy=kind, params=params, cache_sizes=cache_sizes, n_runs=args.runs)

    matrix = load_cost_matrix(args.cost_matrix) if args.cost_matrix is not None else None

    # --out is opened only after the sweep, so that an error on the way
    # leaves no CSV; an empty --out, a missing directory, or an --out that
    # is a directory fails before any run instead, with the error open
    # would give. An empty --trace or --dump-placement fails where its run
    # opens it, before the run starts.
    if not args.out or not os.path.isdir(os.path.dirname(args.out) or os.curdir):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)

    results = run_sweep(cfg, sweep, workers=args.workers, cost_matrix=matrix,
                        fixed_topology=args.fixed_topology,
                        _trace=args.trace, _placement=args.dump_placement)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_csv(results))
    print(f"wrote {args.out} ({len(results)} rows)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        return _main_simulate(argv)
    except (ConfigError, OSError) as err:
        print(f"simulate: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
