"""Experiment driver: parameter sweeps, replications, CSV output.

The `simulate` command runs a strategy (or a parameter sweep of one)
over a grid of cache sizes, replicates each point with deterministic
per-run seeds, and writes one CSV row per point. Reruns with identical
flags produce byte-identical CSV files regardless of --workers.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from random import Random

from .engine import mix_seed, run_inputs, run_simulation, substream
from .metrics import AggregateResult, aggregate_runs
from .model import (
    ConfigError,
    SimConfig,
    StrategySpec,
    default_config,
    load_config,
    validate_config,
)
from .topology import load_cost_matrix

CSV_HEADER = "strategy,param,M,beta,n_runs,events,avg_cost,ci95_cost,avg_wait,ci95_wait,avg_queries"

# Human name of each family's sweep parameter, accepted as a `name:` prefix
# on --sweep values.
SWEEP_PARAM_NAMES = {"pss": "zeta", "wmc": "alpha", "mcs": "delta"}


@dataclass(frozen=True)
class SweepSpec:
    """A grid of (cache size, strategy parameter) points to simulate."""

    strategy: str
    params: tuple[float | None, ...]
    cache_sizes: tuple[int, ...]
    n_runs: int = 10
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy in ("mincost", "minqueue"):
            if tuple(self.params) not in ((), (None,)):
                raise ConfigError(f"{self.strategy} takes no sweep parameter")
            object.__setattr__(self, "params", (None,))
        elif not self.params:
            raise ConfigError(
                f"sweep over {self.strategy} needs at least one "
                f"{SWEEP_PARAM_NAMES.get(self.strategy, 'parameter')} value"
            )
        if not self.cache_sizes:
            raise ConfigError("sweep needs at least one cache size")
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")
        # Points are laid out params-ascending within cache-size-ascending;
        # seeds are tied to that canonical order.
        object.__setattr__(self, "cache_sizes", tuple(sorted(self.cache_sizes)))
        if self.params != (None,):
            object.__setattr__(self, "params", tuple(sorted(self.params)))

    def points(self) -> list[tuple[int, float | None]]:
        return [(m, p) for m in self.cache_sizes for p in self.params]


def _one_run(args):
    cfg, strategy, run_seed, cost_matrix, allocation = args
    return run_simulation(
        cfg, strategy, run_seed, cost_matrix=cost_matrix, allocation=allocation
    )


def _fixed_topology(cfg: SimConfig, sweep: SweepSpec, cost_matrix=None):
    """The cost matrix and the per-cache-size placements that every run of a
    fixed-topology sweep shares: one layout for the whole sweep and one
    placement per cache size, both derived from the base seed. A given
    cost_matrix stands in for the drawn layout."""
    layout_rng = substream(sweep.base_seed, "sweep-layout")
    placements = {}
    for m in sweep.cache_sizes:
        cost_matrix, placements[m] = run_inputs(
            replace(cfg, cache_size=m), layout_rng,
            Random(mix_seed(sweep.base_seed, "sweep-placement", m)), cost_matrix=cost_matrix,
        )
    return cost_matrix, placements


def _point_setup(cfg: SimConfig, sweep: SweepSpec):
    # (config, strategy) of every sweep point, with the point named in errors.
    setups = []
    for m, param in sweep.points():
        try:
            setups.append(
                (validate_config(replace(cfg, cache_size=m)), StrategySpec(sweep.strategy, param))
            )
        except ConfigError as err:
            raise ConfigError(f"sweep point M={m} param={param}: {err}") from err
    return setups


def _sweep_runs(cfg: SimConfig, sweep: SweepSpec, cost_matrix, fixed_topology: bool):
    # (config, strategy, run seed, cost matrix, allocation) of every run, in
    # point order and run order within a point.
    setups = _point_setup(cfg, sweep)
    placements = {}
    if fixed_topology:
        cost_matrix, placements = _fixed_topology(cfg, sweep, cost_matrix)
    return [
        (point_cfg, strategy, mix_seed(sweep.base_seed, point_idx, run_idx), cost_matrix,
         placements.get(point_cfg.cache_size))
        for point_idx, (point_cfg, strategy) in enumerate(setups)
        for run_idx in range(sweep.n_runs)
    ]


def _aggregate_point(cfg: SimConfig, sweep: SweepSpec, m: int, param, results) -> AggregateResult:
    return replace(
        aggregate_runs(results, param=param),
        strategy=sweep.strategy,
        cache_size=m,
        zipf_beta=cfg.zipf_beta,
        events=cfg.horizon_events,
    )


def run_sweep(
    cfg: SimConfig,
    sweep: SweepSpec,
    *,
    workers: int = 1,
    cost_matrix=None,
    fixed_topology: bool = False,
) -> list[AggregateResult]:
    """Simulate every sweep point n_runs times and aggregate each point.

    Run seeds are mix_seed(base_seed, point_index, run_index), so any
    point/run can be reproduced in isolation. By default topology and
    placement are redrawn inside every run from its own seed;
    fixed_topology freezes one layout for the whole sweep and one
    placement per cache size, both derived from the base seed.
    """
    jobs = _sweep_runs(cfg, sweep, cost_matrix, fixed_topology)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_run, jobs, chunksize=1))
    else:
        results = [_one_run(job) for job in jobs]

    n = sweep.n_runs
    return [
        _aggregate_point(cfg, sweep, m, param, results[i * n : (i + 1) * n])
        for i, (m, param) in enumerate(sweep.points())
    ]


def _fmt(x: float) -> str:
    return format(x, ".6g")


def format_csv(results) -> str:
    """Render aggregates as CSV text, params ascending within cache sizes."""
    ordered = sorted(
        results,
        key=lambda r: (
            r.cache_size if r.cache_size is not None else -1,
            r.param if r.param is not None else float("-inf"),
        ),
    )
    lines = [CSV_HEADER]
    for r in ordered:
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


def write_csv(results, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_csv(results))


def _parse_sweep_values(text: str, family: str) -> tuple[float, ...]:
    body = text.strip()
    name, sep, rest = body.partition(":")
    if sep and not name.replace(".", "").replace("-", "").isdigit():
        expected = SWEEP_PARAM_NAMES.get(family)
        if expected is None:
            raise ConfigError(f"{family} takes no sweep parameter")
        if name.strip().lower() != expected:
            raise ConfigError(
                f"sweep parameter {name.strip()!r} does not belong to {family} "
                f"(expected {expected})"
            )
        body = rest
    try:
        values = tuple(float(v) for v in body.split(","))
    except ValueError:
        raise ConfigError(f"sweep list {text!r} has a non-numeric value") from None
    if not values:
        raise ConfigError("sweep list is empty")
    return values


def _parse_cache_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"cache size list {text!r} has a non-integer value") from None


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

    if args.config:
        cfg, cfg_strategy = load_config(args.config)
    else:
        cfg, cfg_strategy = default_config(), None

    overrides = {}
    if args.warmup is not None:
        overrides["warmup_events"] = args.warmup
    if args.events is not None:
        overrides["horizon_events"] = args.events
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if overrides:
        cfg = validate_config(replace(cfg, **overrides))

    strategy = None
    if args.strategy:
        text = args.strategy.strip().lower()
        if args.sweep and ":" not in text and text in SWEEP_PARAM_NAMES:
            kind = text  # bare parametric family, parameters come from --sweep
        else:
            strategy = StrategySpec.parse(text)
            kind = strategy.kind
    elif cfg_strategy is not None:
        strategy = cfg_strategy
        kind = strategy.kind
    else:
        raise ConfigError("no strategy given (use --strategy or a config 'strategy' line)")

    if args.sweep:
        if strategy is not None and strategy.param is not None:
            raise ConfigError(
                f"--sweep conflicts with the fixed parameter in {strategy}; "
                f"use the bare family name"
            )
        params = _parse_sweep_values(args.sweep, kind)
    else:
        params = (strategy.param,)

    cache_sizes = (
        _parse_cache_sizes(args.cache_sizes) if args.cache_sizes else (cfg.cache_size,)
    )
    sweep = SweepSpec(
        strategy=kind,
        params=params,
        cache_sizes=cache_sizes,
        n_runs=args.runs,
        base_seed=cfg.base_seed,
    )

    matrix = load_cost_matrix(args.cost_matrix) if args.cost_matrix else None

    if args.trace or args.dump_placement:
        if len(sweep.points()) != 1 or sweep.n_runs != 1:
            raise ConfigError("--trace/--dump-placement need exactly one point and --runs 1")
        results = _run_traced_point(cfg, sweep, matrix, args)
    else:
        results = run_sweep(
            cfg,
            sweep,
            workers=max(1, args.workers),
            cost_matrix=matrix,
            fixed_topology=args.fixed_topology,
        )

    write_csv(results, args.out)
    print(f"wrote {args.out} ({len(results)} rows)", file=sys.stderr)
    return 0


def _run_traced_point(cfg, sweep, matrix, args):
    # The sweep's single run, as run_sweep would make it.
    (m, param) = sweep.points()[0]
    [(point_cfg, strategy, run_seed, matrix, allocation)] = _sweep_runs(
        cfg, sweep, matrix, args.fixed_topology)
    # Materialize what the run would draw so the allocation can be dumped.
    matrix, allocation = run_inputs(
        point_cfg, substream(run_seed, "layout"), substream(run_seed, "placement"),
        cost_matrix=matrix, allocation=allocation,
    )
    if args.dump_placement:
        with open(args.dump_placement, "w", encoding="utf-8") as fh:
            for k, files in enumerate(allocation.server_files):
                fh.write(f"{k}: {','.join(str(f) for f in sorted(files))}\n")

    trace_fh = open(args.trace, "w", encoding="utf-8", newline="") if args.trace else None
    try:
        result = run_simulation(
            point_cfg, strategy, run_seed,
            cost_matrix=matrix, allocation=allocation, trace=trace_fh,
        )
    finally:
        if trace_fh is not None:
            trace_fh.close()
    return [_aggregate_point(cfg, sweep, m, param, [result])]


def _main_oracle_check(argv) -> int:
    # Not advertised: brute-force dominance self-test on random tiny instances.
    # Prints the oracle and replayed policy values in repr, one line per
    # (instance, weight, policy), so two versions' replays compare as bytes.
    from .oracle import exhaustive_objective_search, random_tiny_instance, replay_strategy

    parser = argparse.ArgumentParser(prog="simulate oracle-check")
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cost-weights", default="0,0.5,1")
    args = parser.parse_args(argv)
    try:
        weights = [float(w) for w in args.cost_weights.split(",")]
    except ValueError:
        raise ConfigError(f"cost weight list {args.cost_weights!r} has a non-numeric value") from None
    if not all(0.0 <= w <= 1.0 for w in weights):
        raise ConfigError(f"cost weights must lie in [0, 1], got {args.cost_weights}")
    if args.instances < 1:
        raise ConfigError("--instances must be >= 1")

    rng = Random(args.seed)
    policies = ["mincost", "minqueue", "pss:0.5", "wmc:0.5", "mcs:2"]
    failures = 0
    for i in range(args.instances):
        inst = random_tiny_instance(rng)
        for w in weights:
            _, best = exhaustive_objective_search(inst, w)
            for name in policies:
                val = replay_strategy(inst, name, w, Random(rng.randrange(2**32)))
                dominated = best <= val + 1e-9
                failures += not dominated
                print(f"instance {i} w={w} {name}: oracle {best!r} policy {val!r}"
                      + ("" if dominated else " FAIL"))
        print(f"instance {i}: ok")
    if failures:
        print(f"{failures} dominance violations", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "oracle-check":
            return _main_oracle_check(argv[1:])
        return _main_simulate(argv)
    except (ConfigError, OSError) as err:
        print(f"simulate: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
