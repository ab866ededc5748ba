"""Independent ground truths the simulator is checked against.

Closed-form queueing results (M/M/1 sojourn, the power-of-d-choices mean
queue) validate the event engine, and a brute-force search over all
feasible assignment sequences of a tiny instance bounds every mapping
strategy from below on a fixed trace. Tiny instances have deterministic
(constant) service: only then does the best fixed sequence bound an
adaptive policy, which sees the queues and may choose differently on
each service path; dominance is the one check of that bound.
Strategies are replayed through strategies.bind_strategy with the queue
state the engine would keep, so they take the decision path the engine
runs; nothing here imports the engine itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Callable, Sequence

from .model import CacheAllocation, ConfigError, CostMatrix, ServiceSpec, StrategySpec
from .popularity import candidate_table
from .strategies import bind_strategy, queue_index


def mm1_mean_sojourn(arrival_rate: float, service_rate: float) -> float:
    """Mean time in system of an M/M/1 queue: 1 / (mu - lambda)."""
    if arrival_rate <= 0.0 or service_rate <= 0.0:
        raise ConfigError("rates must be strictly positive")
    if arrival_rate >= service_rate:
        raise ConfigError(
            f"unstable queue: arrival rate {arrival_rate} >= service rate {service_rate}"
        )
    return 1.0 / (service_rate - arrival_rate)


def supermarket_mean_queue(load: float, n_choices: int) -> float:
    """Mean jobs per server when each arrival joins the shortest of
    n_choices uniformly sampled queues (unit-rate exponential service).

    Evaluates the fixed-point series sum_{i>=1} load^((d^i - 1)/(d - 1)),
    truncated once terms drop below 1e-12. n_choices = 1 recovers the
    M/M/1 mean load/(1 - load).
    """
    if not 0.0 < load < 1.0:
        raise ConfigError(f"load must lie in (0, 1), got {load}")
    if n_choices < 1:
        raise ConfigError("n_choices must be >= 1")
    total = 0.0
    exponent = 1.0
    while True:
        term = load**exponent
        if term < 1e-12:
            return total
        total += term
        exponent = exponent * n_choices + 1.0


@dataclass(frozen=True)
class TinyInstance:
    """A fixed request trace over a toy system with constant service,
    small enough to enumerate every feasible assignment sequence."""

    cost: CostMatrix
    allocation: CacheAllocation
    arrival_times: tuple[float, ...]
    users: tuple[int, ...]
    files: tuple[int, ...]
    service: ServiceSpec

    def __post_init__(self) -> None:
        t = len(self.arrival_times)
        if not (len(self.users) == len(self.files) == t):
            raise ConfigError("arrival_times, users and files must have equal length")
        if self.cost.n_servers != self.allocation.n_servers:
            raise ConfigError("cost matrix and allocation must have equal server counts")
        if self.service.kind != "const":
            raise ConfigError(f"tiny instances need constant service, got {self.service.kind!r}")
        if not 1 <= t <= 8:
            raise ConfigError("instance must carry between 1 and 8 requests")
        if any(b <= a for a, b in zip(self.arrival_times, self.arrival_times[1:])):
            raise ConfigError("arrival times must be strictly increasing")
        for u in self.users:
            if not 0 <= u < self.cost.n_users:
                raise ConfigError(f"unknown user {u}")
        for f in self.files:
            if not 0 <= f < self.allocation.n_files:
                raise ConfigError(f"unknown file {f}")
        size = 1
        for cands in self.request_candidates():
            size *= len(cands)
            if size > 10_000:
                raise ConfigError("assignment space exceeds the 1e4 enumeration bound")

    @property
    def n_requests(self) -> int:
        return len(self.arrival_times)

    def request_candidates(self) -> list[tuple[int, ...]]:
        table = candidate_table(self.allocation)
        return [table[f] for f in self.files]


def _departures(inst: TinyInstance, servers: Sequence[int]) -> list[float]:
    # FIFO on each server: a job starts at its arrival or at its server's
    # last departure, whichever is later, and leaves one service time on.
    # servers may name the first few requests only.
    service = inst.service.value
    free_at = [0.0] * inst.cost.n_servers
    done = []
    for t, k in zip(inst.arrival_times, servers):
        free_at[k] = (free_at[k] if free_at[k] > t else t) + service
        done.append(free_at[k])
    return done


def replay_assignments(inst: TinyInstance, servers: Sequence[int]) -> tuple[float, float]:
    """FIFO replay of a fixed assignment sequence; returns (mean cost,
    mean sojourn) over the trace."""
    total_cost = 0.0
    total_sojourn = 0.0
    for j, done in enumerate(_departures(inst, servers)):
        total_cost += inst.cost.entries[inst.users[j]][servers[j]]
        total_sojourn += done - inst.arrival_times[j]
    n = inst.n_requests
    return total_cost / n, total_sojourn / n


def sequence_objective(inst: TinyInstance, servers: Sequence[int], cost_weight: float) -> float:
    """cost_weight * mean cost + (1 - cost_weight) * mean sojourn."""
    mean_cost, mean_sojourn = replay_assignments(inst, servers)
    return cost_weight * mean_cost + (1.0 - cost_weight) * mean_sojourn


def exhaustive_objective_search(
    inst: TinyInstance, cost_weight: float
) -> tuple[tuple[int, ...], float]:
    """Enumerate every feasible assignment sequence and return the one
    minimizing the mixed objective, with its value.

    Ties keep the first sequence in candidate order. Service is constant,
    so a policy's decisions fix one sequence and the bound holds for any
    policy, adaptive or not; with random service the best fixed sequence
    would not bound a policy that adapts to the service times it sees.
    """
    if not 0.0 <= cost_weight <= 1.0:
        raise ValueError(f"cost_weight must lie in [0, 1], got {cost_weight}")
    best_seq: tuple[int, ...] | None = None
    best_val = math.inf
    for seq in product(*inst.request_candidates()):
        val = sequence_objective(inst, seq, cost_weight)
        if val < best_val:
            best_val = val
            best_seq = seq
    assert best_seq is not None
    return best_seq, best_val


def replay_strategy(
    inst: TinyInstance, strategy: StrategySpec | str, cost_weight: float, rng: Random
) -> float:
    """Run a mapping strategy over the instance's trace and score it with
    the same objective as the exhaustive search.

    The strategy sees the true jobs-in-system vector at each arrival: a
    job counts until its departure, and one departing at the arrival's
    time has left, as in the engine. At each arrival it is bound with
    bind_strategy, the one-item list of the least-loaded servers that
    queue_index builds from that vector and, as the engine's departure
    heap, the list of the servers of the jobs in system, so a file held by
    every server takes the engine's path. prep draws nothing, so a fresh
    binding decides as a warm one would.
    """
    if isinstance(strategy, str):
        strategy = StrategySpec.parse(strategy)
    table = candidate_table(inst.allocation)
    n_servers = inst.cost.n_servers
    servers: list[int] = []
    for j in range(inst.n_requests):
        t = inst.arrival_times[j]
        in_system = [k for k, done in zip(servers, _departures(inst, servers)) if done > t]
        queues = [0] * n_servers
        for k in in_system:
            queues[k] += 1
        decide = bind_strategy(strategy, inst.cost.entries, table, inst.cost.n_users,
                               inst.allocation.n_files, rng,
                               queue_index=queue_index(strategy, table, queues),
                               jobs_in_system=in_system)
        servers.append(decide(inst.users[j], inst.files[j], queues).server)
    return sequence_objective(inst, servers, cost_weight)


def dominance(
    inst: TinyInstance, cost_weight: float, policies: Sequence[str],
    replay_rng: Callable[[], Random],
) -> tuple[tuple[int, ...], float, dict[str, float], list[str]]:
    """The brute-force dominance check: the exhaustive optimum must not
    lie above any policy's replayed value.

    Returns the optimal sequence, its value, each policy's replayed value
    in the order given, and the policies that beat the optimum by more
    than 1e-9 (float rounding), so an empty list is a pass. replay_rng()
    is called once per policy, after the search, for that replay's Random.
    """
    seq, best = exhaustive_objective_search(inst, cost_weight)
    values = {name: replay_strategy(inst, name, cost_weight, replay_rng()) for name in policies}
    return seq, best, values, [name for name, val in values.items() if best > val + 1e-9]


def random_tiny_instance(rng: Random, *, n_requests: int = 6) -> TinyInstance:
    """A feasible random instance: at most 3 servers, users, and files,
    continuous costs (almost surely tie-free), constant unit service."""
    n_servers = rng.randint(2, 3)
    n_users = rng.randint(1, 3)
    n_files = rng.randint(2, 3)
    cache_size = rng.randint(math.ceil(n_files / n_servers), n_files)
    cost = CostMatrix(
        [[rng.uniform(0.0, 10.0) for _ in range(n_servers)] for _ in range(n_users)]
    )
    while True:
        caches = [frozenset(rng.sample(range(n_files), cache_size)) for _ in range(n_servers)]
        if set().union(*caches) == set(range(n_files)):
            break
    allocation = CacheAllocation(caches, n_files)
    times = []
    t = 0.0
    for _ in range(n_requests):
        t += rng.expovariate(1.0)
        times.append(t)
    return TinyInstance(
        cost=cost,
        allocation=allocation,
        arrival_times=tuple(times),
        users=tuple(rng.randrange(n_users) for _ in range(n_requests)),
        files=tuple(rng.randrange(n_files) for _ in range(n_requests)),
        service=ServiceSpec("const", 1.0),
    )
