"""Domain types and configuration validation for the request-mapping simulator.

Everything in here is a plain immutable value object. Construction does
structural checks only; validate_config checks the model invariants
(sizes, cache geometry, rates, horizon) in one place with distinct,
testable error types. Whether a configuration is stable depends on the
strategy and on the drawn layout and placement, so no check of it is
made up front: each run reports signs of overload on its RunResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


class ConfigError(ValueError):
    """A configuration value violates the model assumptions."""


class AggregateMemoryError(ConfigError):
    """Combined cache memory cannot hold the whole library (n_servers * cache_size < n_files)."""


class CacheSizeError(ConfigError):
    """Per-server cache size exceeds the library size (cache_size > n_files)."""


class RateError(ConfigError):
    """An arrival rate or service parameter is not strictly positive."""


class HorizonError(ConfigError):
    """warmup_events must be strictly smaller than horizon_events."""


_MAX_SEED = 2**64


@dataclass(frozen=True)
class ServiceSpec:
    """Service-time distribution of a server.

    kind "exp": exponential with rate `value` (mean 1/value).
    kind "const": deterministic duration `value`.
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("exp", "const"):
            raise ConfigError(f"unknown service kind {self.kind!r}")
        object.__setattr__(self, "value", float(self.value))

    @classmethod
    def exponential(cls, rate: float) -> "ServiceSpec":
        return cls("exp", rate)

    @classmethod
    def constant(cls, duration: float) -> "ServiceSpec":
        return cls("const", duration)

    @classmethod
    def parse(cls, text: str) -> "ServiceSpec":
        """Parse 'exp:1.0' or 'const:2.0'."""
        kind, sep, val = text.strip().partition(":")
        if not sep:
            raise ConfigError(f"service spec {text!r} must look like 'exp:1.0' or 'const:2.0'")
        try:
            value = float(val)
        except ValueError:
            raise ConfigError(f"service spec {text!r} has a non-numeric parameter") from None
        return cls(kind.strip(), value)

    def mean(self) -> float:
        return 1.0 / self.value if self.kind == "exp" else self.value


# Strategy families, in the order they are documented everywhere.
STRATEGY_FAMILIES = ("mincost", "minqueue", "pss", "wmc", "mcs")
_PARAMETRIC = {"pss": "switch probability", "wmc": "cost weight", "mcs": "probe count"}


@dataclass(frozen=True)
class StrategySpec:
    """A mapping strategy plus its tuning parameter, if it has one.

    pss carries a switch probability in [0, 1], wmc a cost weight in
    [0, 1], mcs an integer probe count >= 1. mincost and minqueue take
    no parameter.
    """

    kind: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_FAMILIES:
            raise ConfigError(f"unknown strategy {self.kind!r}")
        if self.kind in ("mincost", "minqueue"):
            if self.param is not None:
                raise ConfigError(f"{self.kind} takes no parameter")
        elif self.param is None:
            raise ConfigError(f"{self.kind} needs a {_PARAMETRIC[self.kind]}")
        elif self.kind == "mcs":
            if not math.isfinite(self.param) or int(self.param) != self.param or self.param < 1:
                raise ConfigError(f"mcs probe count must be an integer >= 1, got {self.param}")
            object.__setattr__(self, "param", int(self.param))
        else:
            param = float(self.param)
            if not 0.0 <= param <= 1.0:
                raise ConfigError(f"{self.kind} parameter must lie in [0, 1], got {param}")
            object.__setattr__(self, "param", param)

    @classmethod
    def parse(cls, text: str) -> "StrategySpec":
        """Parse 'mincost', 'minqueue', 'pss:0.5', 'wmc:0.3' or 'mcs:2'."""
        kind, sep, val = text.strip().lower().partition(":")
        kind = kind.strip()
        if not sep:
            return cls(kind)
        try:
            param = float(val)
        except ValueError:
            raise ConfigError(f"strategy spec {text!r} has a non-numeric parameter") from None
        return cls(kind, param)

    def __str__(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param:g}"


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulated system.

    arrival_rates has one entry per user; service applies to every
    server. horizon_events counts request arrivals, of which the first
    warmup_events are excluded from all averages.
    """

    n_servers: int
    n_users: int
    n_files: int
    cache_size: int
    arrival_rates: tuple[float, ...]
    service: ServiceSpec
    horizon_events: int
    zipf_beta: float = 0.0
    warmup_events: int = 0
    lattice_side: int = 20
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrival_rates", tuple(float(r) for r in self.arrival_rates))


def uniform_rates(n_users: int, rate: float) -> tuple[float, ...]:
    return (float(rate),) * n_users


def default_config(**overrides) -> SimConfig:
    """The stock large-system setup: 100 servers, 100 users, 70 files,
    per-user Poisson rate 0.9, unit-rate exponential service, 1e5 arrivals."""
    base = dict(
        n_servers=100,
        n_users=100,
        n_files=70,
        cache_size=8,
        service=ServiceSpec.exponential(1.0),
        horizon_events=100_000,
    )
    base.update(overrides)
    base.setdefault("arrival_rates", uniform_rates(base["n_users"], 0.9))
    return validate_config(SimConfig(**base))


def validate_config(cfg: SimConfig) -> SimConfig:
    """Check every model invariant; return cfg unchanged if all hold."""
    if cfg.n_servers < 1 or cfg.n_users < 1 or cfg.n_files < 1:
        raise ConfigError("n_servers, n_users and n_files must all be >= 1")
    if cfg.cache_size < 1:
        raise ConfigError("cache_size must be >= 1")
    if cfg.cache_size > cfg.n_files:
        raise CacheSizeError(
            f"cache_size {cfg.cache_size} exceeds n_files {cfg.n_files}"
        )
    if cfg.n_servers * cfg.cache_size < cfg.n_files:
        raise AggregateMemoryError(
            f"{cfg.n_servers} servers * cache_size {cfg.cache_size} cannot cover "
            f"{cfg.n_files} files"
        )
    if len(cfg.arrival_rates) != cfg.n_users:
        raise RateError(
            f"got {len(cfg.arrival_rates)} arrival rates for {cfg.n_users} users"
        )
    for i, rate in enumerate(cfg.arrival_rates):
        if not (rate > 0.0 and math.isfinite(rate)):
            raise RateError(f"arrival rate for user {i} must be > 0, got {rate}")
    if not (cfg.service.value > 0.0 and math.isfinite(cfg.service.value)):
        raise RateError(f"service parameter must be > 0, got {cfg.service.value}")
    if not (0.0 <= cfg.zipf_beta and math.isfinite(cfg.zipf_beta)):
        raise ConfigError(f"zipf_beta must be a finite value >= 0, got {cfg.zipf_beta}")
    if cfg.horizon_events < 1:
        raise ConfigError("horizon_events must be >= 1")
    if cfg.warmup_events < 0:
        raise ConfigError("warmup_events must be >= 0")
    if cfg.warmup_events >= cfg.horizon_events:
        raise HorizonError(
            f"warmup_events {cfg.warmup_events} leaves no counted arrivals out of "
            f"{cfg.horizon_events}"
        )
    if cfg.lattice_side < 1:
        raise ConfigError("lattice_side must be >= 1")
    if not 0 <= cfg.base_seed < _MAX_SEED:
        raise ConfigError("base_seed must fit in an unsigned 64-bit integer")
    return cfg


@dataclass(frozen=True)
class CostMatrix:
    """Per-(user, server) delivery cost; entries[i][k] is finite and >= 0."""

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        # The one place entries are converted to float and checked; each
        # row is scanned by C-level builtins and walked only to name the
        # first bad entry.
        entries = tuple(tuple(map(float, row)) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries or not entries[0]:
            raise ConfigError("cost matrix must be non-empty")
        width = len(entries[0])
        for i, row in enumerate(entries):
            if len(row) != width:
                raise ConfigError(f"cost matrix row {i} has length {len(row)}, expected {width}")
            if not (all(map(math.isfinite, row)) and min(row) >= 0.0):
                for k, c in enumerate(row):
                    if not (math.isfinite(c) and c >= 0.0):
                        raise ConfigError(f"cost[{i}][{k}] must be finite and >= 0, got {c}")

    @classmethod
    def from_rows(cls, rows) -> "CostMatrix":
        return cls(tuple(rows))

    @property
    def n_users(self) -> int:
        return len(self.entries)

    @property
    def n_servers(self) -> int:
        return len(self.entries[0])


@dataclass(frozen=True)
class CacheAllocation:
    """Which files each server holds. Every server stores the same number
    of files and every file is held somewhere."""

    server_files: tuple[frozenset[int], ...]
    n_files: int
    # popularity.candidate_table's result, kept on the first call.
    _candidate_table: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Each server's files are scanned by min and max, and walked only to
        # name the first unknown one.
        if not self.server_files:
            raise ConfigError("allocation must cover at least one server")
        size = len(self.server_files[0])
        n_files = self.n_files
        for k, files in enumerate(self.server_files):
            if len(files) != size:
                raise ConfigError(
                    f"server {k} caches {len(files)} files, expected {size}"
                )
            if files and not (0 <= min(files) and max(files) < n_files):
                for f in files:
                    if not 0 <= f < n_files:
                        raise ConfigError(f"server {k} caches unknown file {f}")
        covered = frozenset().union(*self.server_files)
        if len(covered) != n_files:
            missing = sorted(set(range(n_files)) - covered)
            raise ConfigError(f"files {missing} are cached nowhere")

    @classmethod
    def from_sets(cls, sets, n_files: int) -> "CacheAllocation":
        return cls(tuple(frozenset(s) for s in sets), n_files)

    @property
    def n_servers(self) -> int:
        return len(self.server_files)

    @property
    def cache_size(self) -> int:
        return len(self.server_files[0])


# Thresholds of RunResult.overloaded, set on the acceptance suite's
# 100k-arrival trade-off sweeps at cache sizes 8 and 70. There, every
# capped-probing run whose probe sets can keep all servers below 0.96 of
# capacity shows wait_growth <= 1.08, and every one whose probe sets must
# overload a server shows >= 1.59. Below OVERLOAD_MIN_EVENTS counted jobs
# the two half means are too noisy to compare.
OVERLOAD_WAIT_GROWTH = 1.2
OVERLOAD_MIN_EVENTS = 1000


@dataclass(frozen=True)
class RunResult:
    """Averages of one replication over its counted window.

    avg_wait is the mean sojourn time (queueing plus service) of counted
    jobs, avg_jobs the time-averaged number of jobs in system per server
    over the counted window.

    wait_growth is the mean sojourn of the late half of the counted jobs
    (by arrival order) divided by that of the early half; it is 1.0 when
    the window holds a single job. A server whose offered load is at or
    above its capacity has a backlog that grows through the run, so the
    late half waits longer than the early half, and avg_wait then grows
    with the horizon instead of estimating a steady-state mean. A warmup
    too short for the load to settle raises it the same way.

    overloaded is the one-sided flag built on it: true when the window
    holds at least OVERLOAD_MIN_EVENTS jobs and wait_growth exceeds
    OVERLOAD_WAIT_GROWTH. A flagged run is evidence that avg_wait is not
    a steady-state mean; an unflagged run is not proof that it is (one
    slightly overloaded server among many can stay under the threshold).
    """

    avg_cost: float
    avg_wait: float
    avg_queries: float
    avg_jobs: float
    counted_events: int
    seed_used: int
    wait_growth: float = 1.0

    @property
    def overloaded(self) -> bool:
        return (
            self.counted_events >= OVERLOAD_MIN_EVENTS
            and self.wait_growth > OVERLOAD_WAIT_GROWTH
        )


# --- config file handling -------------------------------------------------
#
# Flat `key = value` lines, `#` starts a comment, keys mirror the SimConfig
# fields. `arrival_rate` sets one shared rate for every user; a `strategy`
# line may preselect a mapping strategy.

_INT_KEYS = frozenset(
    ("n_servers", "n_users", "n_files", "cache_size", "horizon_events",
     "warmup_events", "lattice_side", "base_seed")
)


def parse_config(text: str) -> tuple[SimConfig, StrategySpec | None]:
    """Parse config-file text; unknown keys are rejected."""
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key in seen:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        seen[key] = value

    strategy = None
    if "strategy" in seen:
        strategy = StrategySpec.parse(seen.pop("strategy"))

    fields: dict[str, object] = {}
    for key, value in seen.items():
        if key in _INT_KEYS:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ConfigError(f"config key {key!r} needs an integer, got {value!r}") from None
        elif key in ("zipf_beta", "arrival_rate"):
            try:
                fields[key] = float(value)
            except ValueError:
                raise ConfigError(f"config key {key!r} needs a number, got {value!r}") from None
        elif key == "arrival_rates":
            try:
                fields[key] = tuple(float(v) for v in value.split(","))
            except ValueError:
                raise ConfigError(f"config key 'arrival_rates' needs a comma list of numbers") from None
        elif key == "service":
            fields[key] = ServiceSpec.parse(value)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    if "arrival_rate" in fields and "arrival_rates" in fields:
        raise ConfigError("give either arrival_rate or arrival_rates, not both")
    shared_rate = fields.pop("arrival_rate", None)
    cfg = default_config(**fields)
    if shared_rate is not None:
        cfg = validate_config(replace(cfg, arrival_rates=uniform_rates(cfg.n_users, shared_rate)))
    return cfg, strategy


def load_config(path) -> tuple[SimConfig, StrategySpec | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
