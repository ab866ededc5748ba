"""Event-driven simulator for cache-aware request mapping.

Models a fleet of caching servers on a lattice, Zipf-popular files
placed proportionally to popularity, Poisson request arrivals, and five
strategies for mapping each request to a server holding its file. The
strategies trade delivery cost against queueing delay against the
number of queue-state queries they spend per request.

The names below are the documented API (README, "Python API"); the
submodules hold everything else.
"""

from .cli import SweepSpec, run_sweep
from .engine import mix_seed, run_simulation
from .model import ConfigError, RunResult, SimConfig, StrategySpec, default_config

__all__ = [
    "ConfigError",
    "RunResult",
    "SimConfig",
    "StrategySpec",
    "SweepSpec",
    "default_config",
    "mix_seed",
    "run_simulation",
    "run_sweep",
]

__version__ = "0.1.0"
