"""Domain types and configuration validation for the request-mapping simulator.

Everything in here is a plain immutable value object, and each value
type checks its own rules when it is built, with distinct, testable
error types: a SimConfig that constructs is valid, and so is every one
dataclasses.replace derives from it. Each value type has one public
constructor, which converts what it is given: CostMatrix makes its
rows floats and CacheAllocation makes each server's files a frozenset.
CostMatrix has two ways in. CostMatrix(rows) converts and checks every
entry, and is the way for every matrix from outside the Manhattan
builder: loaded files, injected matrices, the oracle's instances. The
private CostMatrix._of_sums is the builder's way: its rows are float
sums of distance rows the builder made itself, so they are taken as
given and the entry rule is checked on the few distance rows (about 40
at the default lattice side) instead of on 10,000 sums, the largest
part of a run's set-up otherwise. Whether a configuration is stable
depends on the strategy and on the drawn layout and placement, so no
check of it is made up front: each run reports signs of overload on
its RunResult. Each input rule lives here once: read_number reads
every number from outside text, STRATEGY_PARAMS names each family's
parameter, check_cache_geometry is shared by SimConfig and placement,
check_lattice_side by SimConfig and the lattice layouts,
check_zipf_beta by SimConfig and the Zipf profile, check_cost_matrix
by the run inputs and the sweep driver, and the cost entry rule,
_check_cost_row, by both ways into CostMatrix. seq_sum is the one
float sum whose result feeds an output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import reduce
from operator import add


class ConfigError(ValueError):
    """A configuration value violates the model assumptions."""


class AggregateMemoryError(ConfigError):
    """Combined cache memory cannot hold the whole library (n_servers * cache_size < n_files)."""


class CacheSizeError(ConfigError):
    """Per-server cache size exceeds the library size (cache_size > n_files)."""


class RateError(ConfigError):
    """An arrival rate or service parameter is not strictly positive and
    finite, the arrival rates' total is not finite or not above the
    smallest normal float, or a run's avg_wait, avg_jobs or wait_growth is
    not finite because its clock or time sums passed the float range."""


class HorizonError(ConfigError):
    """warmup_events must be strictly smaller than horizon_events."""


_MAX_SEED = 2**64


def seq_sum(values) -> float:
    """The left-to-right float sum of values, starting from 0.0. sum()
    compensates its rounding on Python 3.12 and later; this one rounds
    the same on every version, so every output that a float sum feeds
    keeps its bytes across versions."""
    return reduce(add, values, 0.0)


def read_number(text: str, where: str, kind: type = float):
    """text as a float, or as an int when kind is int. A value that does
    not read is a ConfigError naming where it came from and the text."""
    try:
        return kind(text)
    except ValueError:
        noun = "integer" if kind is int else "numeric"
        raise ConfigError(f"{where} has a non-{noun} value {text.strip()!r}") from None


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
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise RateError(f"service parameter must be > 0, got {self.value}")

    @classmethod
    def parse(cls, text: str) -> "ServiceSpec":
        """Parse 'exp:1.0' or 'const:2.0'."""
        kind, sep, val = text.strip().partition(":")
        if not sep:
            raise ConfigError(f"service spec {text!r} must look like 'exp:1.0' or 'const:2.0'")
        return cls(kind.strip(), read_number(val, f"service spec {text!r}"))

    def mean(self) -> float:
        return 1.0 / self.value if self.kind == "exp" else self.value


# Strategy families, in the order they are documented everywhere, each with
# its parameter's (sweep name, meaning), or None if it takes no parameter.
STRATEGY_PARAMS = {"mincost": None, "minqueue": None, "pss": ("zeta", "switch probability"),
                   "wmc": ("alpha", "cost weight"), "mcs": ("delta", "probe count")}


def strategy_param(kind: str) -> tuple[str, str] | None:
    """STRATEGY_PARAMS' entry for kind; an unknown family is a ConfigError."""
    if kind not in STRATEGY_PARAMS:
        raise ConfigError(f"unknown strategy {kind!r}")
    return STRATEGY_PARAMS[kind]


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
        takes = strategy_param(self.kind)
        if takes is None:
            if self.param is not None:
                raise ConfigError(f"{self.kind} takes no parameter")
        elif self.param is None:
            raise ConfigError(f"{self.kind} needs a {takes[1]}")
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
        return cls(kind, read_number(val, f"strategy spec {text!r}"))

    def __str__(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param:g}"


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulated system.

    arrival_rates has one entry per user; service applies to every
    server. horizon_events counts request arrivals, of which the first
    warmup_events are excluded from all averages. Construction, by
    dataclasses.replace too, checks every rule of the model and raises
    the ConfigError subclass that names the first one broken.
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
        if self.n_servers < 1 or self.n_users < 1 or self.n_files < 1:
            raise ConfigError("n_servers, n_users and n_files must all be >= 1")
        check_cache_geometry(self.n_servers, self.n_files, self.cache_size)
        if len(self.arrival_rates) != self.n_users:
            raise RateError(
                f"got {len(self.arrival_rates)} arrival rates for {self.n_users} users"
            )
        for i, rate in enumerate(self.arrival_rates):
            if not (rate > 0.0 and math.isfinite(rate)):
                raise RateError(f"arrival rate for user {i} must be > 0, got {rate}")
        # The engine draws the requesting user by bisecting u * total, with
        # u <= 1 - 2**-53, into the running rate sums. Above the smallest
        # normal float that product rounds below total, so the bisect always
        # finds a user; at that float it rounds up to total, a tie to even.
        total = seq_sum(self.arrival_rates)
        if not math.isfinite(total):
            raise RateError(f"arrival rates must have a finite total, got {total}")
        if not total > sys.float_info.min:
            raise RateError(
                f"arrival rates must have a total above {sys.float_info.min}, got {total}"
            )
        check_zipf_beta(self.zipf_beta)
        if self.horizon_events < 1:
            raise ConfigError("horizon_events must be >= 1")
        if self.warmup_events < 0:
            raise ConfigError("warmup_events must be >= 0")
        if self.warmup_events >= self.horizon_events:
            raise HorizonError(
                f"warmup_events {self.warmup_events} leaves no counted arrivals out of "
                f"{self.horizon_events}"
            )
        check_lattice_side(self.lattice_side)
        # Up to this side every lattice distance, and every sum of two, is an exact float.
        if self.lattice_side > 2**52:
            raise ConfigError(f"lattice_side must be <= 2**52, got {self.lattice_side}")
        if not 0 <= self.base_seed < _MAX_SEED:
            raise ConfigError("base_seed must fit in an unsigned 64-bit integer")


def default_config(**overrides) -> SimConfig:
    """The stock large-system setup: 100 servers, 100 users, 70 files,
    per-user Poisson rate 0.9, unit-rate exponential service, 1e5 arrivals."""
    base = dict(
        n_servers=100,
        n_users=100,
        n_files=70,
        cache_size=8,
        service=ServiceSpec("exp", 1.0),
        horizon_events=100_000,
    )
    base.update(overrides)
    base.setdefault("arrival_rates", (0.9,) * base["n_users"])
    return SimConfig(**base)


def check_cache_geometry(n_servers: int, n_files: int, cache_size: int) -> None:
    """Raise ConfigError for an empty cache, CacheSizeError if one cache
    exceeds the library, and AggregateMemoryError if all caches together
    cannot hold it."""
    if cache_size < 1:
        raise ConfigError("cache_size must be >= 1")
    if cache_size > n_files:
        raise CacheSizeError(f"cache_size {cache_size} exceeds n_files {n_files}")
    if n_servers * cache_size < n_files:
        raise AggregateMemoryError(
            f"{n_servers} servers * cache_size {cache_size} cannot cover {n_files} files"
        )


def check_lattice_side(side: int) -> None:
    """Raise ConfigError unless a lattice has at least one cell a side."""
    if side < 1:
        raise ConfigError(f"lattice side must be >= 1, got {side}")


def check_zipf_beta(beta: float) -> None:
    """Raise ConfigError unless the Zipf exponent is finite and >= 0."""
    if not (0.0 <= beta and math.isfinite(beta)):
        raise ConfigError(f"zipf_beta must be a finite value >= 0, got {beta}")


def check_cost_matrix(cost_matrix: CostMatrix, cfg: SimConfig) -> None:
    """Raise ConfigError unless cost_matrix is cfg's n_users x n_servers."""
    if (cost_matrix.n_users, cost_matrix.n_servers) != (cfg.n_users, cfg.n_servers):
        raise ConfigError(
            f"cost matrix is {cost_matrix.n_users}x{cost_matrix.n_servers}, "
            f"config needs {cfg.n_users}x{cfg.n_servers}"
        )


def _check_cost_row(row, name: str) -> None:
    """The entry rule of a cost matrix: raise ConfigError unless every
    entry of the non-empty float row is finite and >= 0, naming the first
    bad one as name[k]. The row is scanned by C-level builtins and walked
    only to name that entry."""
    if not (all(map(math.isfinite, row)) and min(row) >= 0.0):
        for k, c in enumerate(row):
            if not (math.isfinite(c) and c >= 0.0):
                raise ConfigError(f"{name}[{k}] must be finite and >= 0, got {c}")


@dataclass(frozen=True)
class CostMatrix:
    """Per-(user, server) delivery cost; entries[i][k] is finite and >= 0."""

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        # Rows from outside the program (files, callers, the oracle) are
        # converted to float and every entry is checked.
        entries = tuple(tuple(map(float, row)) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries or not entries[0]:
            raise ConfigError("cost matrix must be non-empty")
        width = len(entries[0])
        for i, row in enumerate(entries):
            if len(row) != width:
                raise ConfigError(f"cost matrix row {i} has length {len(row)}, expected {width}")
            _check_cost_row(row, f"cost[{i}]")

    @classmethod
    def _of_sums(cls, rows, x_rows, y_rows) -> "CostMatrix":
        """The matrix whose entries are rows, taken as given: a tuple of
        equal-length float tuples, each the elementwise sum of one of the
        distance rows x_rows and one of y_rows. The entry rule is checked
        on the distance rows instead of the sums: when each is finite and
        >= 0 and the largest x distance plus the largest y distance is
        finite, every sum is too, as float addition is monotone."""
        if not rows or not rows[0]:
            raise ConfigError("cost matrix must be non-empty")
        for axis, distances in (("x", x_rows), ("y", y_rows)):
            for row in distances:
                _check_cost_row(row, f"{axis} distance")
        largest_x = max(map(max, x_rows))
        largest_y = max(map(max, y_rows))
        if not math.isfinite(largest_x + largest_y):
            raise ConfigError(
                f"cost may overflow: largest x distance {largest_x} "
                f"plus largest y distance {largest_y} is not finite"
            )
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", rows)
        return matrix

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

    def __post_init__(self) -> None:
        # The one place each server's files become a frozenset (an exact
        # frozenset is kept as is); each is scanned by min and max, and
        # walked only to name the first unknown one.
        object.__setattr__(self, "server_files", tuple(map(frozenset, self.server_files)))
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

_NUMBER_KEYS = dict.fromkeys(
    ("n_servers", "n_users", "n_files", "cache_size", "horizon_events",
     "warmup_events", "lattice_side", "base_seed"), int,
) | {"zipf_beta": float, "arrival_rate": float}


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
        if key in _NUMBER_KEYS:
            fields[key] = read_number(value, f"config key {key!r}", _NUMBER_KEYS[key])
        elif key == "arrival_rates":
            fields[key] = tuple(read_number(v, f"config key {key!r}") for v in value.split(","))
        elif key == "service":
            fields[key] = ServiceSpec.parse(value)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    if "arrival_rate" in fields and "arrival_rates" in fields:
        raise ConfigError("give either arrival_rate or arrival_rates, not both")
    shared_rate = fields.pop("arrival_rate", None)
    cfg = default_config(**fields)
    if shared_rate is not None:
        cfg = replace(cfg, arrival_rates=(shared_rate,) * cfg.n_users)
    return cfg, strategy


def load_config(path) -> tuple[SimConfig, StrategySpec | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
