"""Event-driven simulator for cache-aware request mapping.

Models a fleet of caching servers on a lattice, Zipf-popular files
placed proportionally to popularity, Poisson request arrivals, and five
strategies for mapping each request to a server holding its file. The
strategies trade delivery cost against queueing delay against the
number of queue-state queries they spend per request.
"""

from .engine import mix_seed, next_arrival, run_simulation, sample_service, substream
from .metrics import AggregateResult, aggregate_runs
from .model import (
    AggregateMemoryError,
    CacheAllocation,
    CacheSizeError,
    ConfigError,
    CostMatrix,
    HorizonError,
    RateError,
    RunResult,
    ServiceSpec,
    SimConfig,
    StrategySpec,
    default_config,
    load_config,
    parse_config,
    uniform_rates,
    validate_config,
)
from .popularity import (
    PopularityProfile,
    candidate_set,
    candidate_table,
    proportional_placement,
    sample_file,
    zipf_profile,
)
from .strategies import (
    MappingDecision,
    min_cost_map,
    min_queue_map,
    pss_map,
    wmc_map,
    mcs_map,
)
from .topology import (
    LatticeLayout,
    load_cost_matrix,
    manhattan_cost_matrix,
    random_lattice_layout,
    save_cost_matrix,
)
from .oracle import (
    TinyInstance,
    exhaustive_objective_search,
    mm1_mean_sojourn,
    replay_assignments,
    replay_strategy,
    supermarket_mean_queue,
)
from .cli import SweepSpec, format_csv, run_sweep, write_csv

__all__ = [
    "AggregateMemoryError",
    "AggregateResult",
    "CacheAllocation",
    "CacheSizeError",
    "ConfigError",
    "CostMatrix",
    "HorizonError",
    "LatticeLayout",
    "MappingDecision",
    "PopularityProfile",
    "RateError",
    "RunResult",
    "ServiceSpec",
    "SimConfig",
    "StrategySpec",
    "SweepSpec",
    "TinyInstance",
    "aggregate_runs",
    "candidate_set",
    "candidate_table",
    "default_config",
    "exhaustive_objective_search",
    "format_csv",
    "load_config",
    "load_cost_matrix",
    "manhattan_cost_matrix",
    "mcs_map",
    "min_cost_map",
    "min_queue_map",
    "mix_seed",
    "mm1_mean_sojourn",
    "next_arrival",
    "parse_config",
    "proportional_placement",
    "pss_map",
    "random_lattice_layout",
    "replay_assignments",
    "replay_strategy",
    "run_simulation",
    "run_sweep",
    "sample_file",
    "sample_service",
    "save_cost_matrix",
    "substream",
    "supermarket_mean_queue",
    "uniform_rates",
    "validate_config",
    "wmc_map",
    "write_csv",
    "zipf_profile",
]

__version__ = "0.1.0"
