"""Event-driven simulation core.

One run: Poisson request arrivals superposed over all users, each request
mapped to a candidate server by the configured strategy, FIFO service at
every server. Each job's departure is fixed at its arrival by the FIFO
recursion max(arrival, previous departure at its server) + service
(Lindley, 1952), so a counted job's sojourn is summed when it arrives and
the run stops at the last arrival; the counted window still ends at the
last counted departure. Departures at or before an arrival's time leave
their queues before that arrival is mapped.

All randomness of a run derives from one 64-bit run seed, split into
fixed named sub-streams (layout, placement, arrivals, files, service,
strategy) so that two runs with the same seed see identical arrival,
file, and service sequences regardless of the strategy under test.

A run is observed through one hook, called at every arrival with the
MappingDecision the bound strategy returned, before the job joins its
server. The trace file is written by such a hook.

For the specs that read a whole candidate set's queues (minqueue, pss
with a switch probability above 0, wmc below cost weight 1), when some
file's candidates are every server, the run also keeps a
strategies.QueueIndex over the jobs-in-system vector: the jobs total for
wmc strictly between cost weights 0 and 1; for the others, the servers
bucketed by queue length in sorted lists, with the lowest length. Each
arrival and departure updates it, and decisions on those files read it
instead of scanning every queue.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush
from itertools import accumulate
from random import Random

from .model import (
    ConfigError,
    RunResult,
    SimConfig,
    StrategySpec,
    validate_config,
)
from .popularity import candidate_table, proportional_placement, zipf_profile
from .strategies import bind_strategy, queue_index
from .topology import manhattan_cost_matrix, random_lattice_layout


def mix_seed(*parts) -> int:
    """Collapse integers and string labels into one 64-bit seed.

    Stable across processes and platforms (unlike hash()), so sweep
    points, run indices, and stream labels always map to the same seeds.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, str):
            h.update(b"s")
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        elif isinstance(part, int):
            h.update(b"i")
            h.update(part.to_bytes(16, "little", signed=True))
        else:
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
    return int.from_bytes(h.digest(), "little")


def substream(run_seed: int, label: str) -> Random:
    """Independent named generator derived from the run seed."""
    return Random(mix_seed(run_seed, label))


def _trace_hook(trace, decision_hook):
    # The decision_hook behind run_simulation's trace: one line per arrival,
    # then the caller's own hook, if any.
    write = trace.write

    def hook(t, user, file_index, candidates, queues, decision):
        k = decision.server
        write(f"{t!r},{user},{file_index},{k},{queues[k]},{decision.queries_used}\n")
        if decision_hook is not None:
            decision_hook(t, user, file_index, candidates, queues, decision)

    return hook


def run_inputs(cfg: SimConfig, layout_rng: Random, placement_rng: Random, *, profile=None,
               cost_matrix=None, allocation=None):
    """The (cost_matrix, allocation) pair of a validated cfg.

    A piece not given is drawn: the lattice layout and its Manhattan cost
    matrix from layout_rng, the placement of profile (by default cfg's Zipf
    profile) from placement_rng. A given one must match cfg's shape.
    """
    n_servers = cfg.n_servers
    n_users = cfg.n_users
    n_files = cfg.n_files

    if cost_matrix is None:
        cost_matrix = manhattan_cost_matrix(
            random_lattice_layout(n_users, n_servers, cfg.lattice_side, layout_rng)
        )
    elif cost_matrix.n_users != n_users or cost_matrix.n_servers != n_servers:
        raise ConfigError(
            f"cost matrix is {cost_matrix.n_users}x{cost_matrix.n_servers}, "
            f"config needs {n_users}x{n_servers}"
        )

    if allocation is None:
        if profile is None:
            profile = zipf_profile(n_files, cfg.zipf_beta)
        allocation = proportional_placement(profile, n_servers, cfg.cache_size, placement_rng)
    elif allocation.n_servers != n_servers or allocation.n_files != n_files:
        raise ConfigError("allocation does not match the configured system size")
    elif allocation.cache_size != cfg.cache_size:
        raise ConfigError(
            f"allocation caches {allocation.cache_size} files per server, "
            f"config has cache_size {cfg.cache_size}"
        )
    return cost_matrix, allocation


def run_simulation(
    cfg: SimConfig,
    strategy: StrategySpec | str,
    run_seed: int,
    *,
    cost_matrix=None,
    allocation=None,
    trace=None,
    decision_hook=None,
) -> RunResult:
    """Simulate exactly cfg.horizon_events arrivals and return the averages
    over the counted window: the arrivals after the warmup, each followed to
    its departure. The run stops at the last arrival; the window spans the
    first counted arrival to the last counted departure.

    cost_matrix and allocation are drawn from the run seed's layout and
    placement sub-streams unless injected (see run_inputs).
    decision_hook(time, user, file, candidates, queues, decision) is called
    on every arrival once the strategy has decided, before the job joins,
    so queues[decision.server] excludes it. trace, when given, receives
    one text line per arrival from that same call, before decision_hook:
    time,user,file,server,queue_len_seen,queries.
    """
    validate_config(cfg)
    if isinstance(strategy, str):
        strategy = StrategySpec.parse(strategy)

    n_servers = cfg.n_servers
    profile = zipf_profile(cfg.n_files, cfg.zipf_beta)
    cost_matrix, allocation = run_inputs(
        cfg, substream(run_seed, "layout"), substream(run_seed, "placement"),
        profile=profile, cost_matrix=cost_matrix, allocation=allocation,
    )
    rows = cost_matrix.entries
    table = candidate_table(allocation)

    index = queue_index(strategy, table, [0] * n_servers)
    buckets = None if index is None else index.buckets

    arr_rng = substream(run_seed, "arrivals")
    file_rng = substream(run_seed, "files")
    svc_rng = substream(run_seed, "service")
    decide = bind_strategy(
        strategy, rows, table, cfg.n_users, cfg.n_files, substream(run_seed, "strategy"),
        queue_index=index,
    )
    cands_by_file = list(table)  # the hook's; an exact list indexes faster than a subclass

    hook = decision_hook if trace is None else _trace_hook(trace, decision_hook)

    # Neither bisect below can return len(cum): random() <= 1 - 2**-53, so
    # u * total rounds below the last rate sum, and the last file's
    # cumulative probability is pinned to 1.0.
    cum_rates = list(accumulate(cfg.arrival_rates))
    total_rate = cum_rates[-1]
    cum_probs = profile.cumulative()

    horizon = cfg.horizon_events
    warmup = cfg.warmup_events
    n_counted = horizon - warmup
    # Counted arrivals from index `late_from` on form the late half of the
    # counted window; comparing its mean sojourn with the early half's gives
    # RunResult.wait_growth.
    late_from = warmup + n_counted // 2

    # Per-server state: free_at[k] is when server k's last job departs;
    # njobs[k] counts server k's jobs on the departure heap and is the queue
    # vector strategies see. Heap entries: (departure, server). A job's
    # sojourn is summed when it arrives, so a departure only leaves its queue.
    free_at = [0.0] * n_servers
    njobs = [0] * n_servers
    dep_heap: list = []
    # Departures of the warmup jobs still in system at the first counted arrival.
    carried = []

    sum_cost = 0.0
    sum_wait = 0.0
    sum_wait_early = 0.0
    sum_wait_late = 0.0
    sum_queries = 0

    t = 0.0
    t_meas_start = 0.0
    t_meas_end = 0.0

    # Hot-loop local bindings.
    push = heappush
    pop = heappop
    bis = bisect_right
    # Exponential draws are Random.expovariate's own expression,
    # -log(1.0 - random()) / rate: the same float from the same uniform.
    log = math.log
    arr_u = arr_rng.random
    file_u = file_rng.random
    svc_u = svc_rng.random
    service_is_exp = cfg.service.kind == "exp"
    svc_param = cfg.service.value

    for i in range(horizon):
        t += -log(1.0 - arr_u()) / total_rate
        user = bis(cum_rates, arr_u() * total_rate)
        while dep_heap and dep_heap[0][0] <= t:
            k = pop(dep_heap)[1]
            njobs[k] -= 1
            if index is not None:
                if buckets is None:
                    index.total -= 1
                else:
                    # k moves from bucket q + 1 to bucket q.
                    q = njobs[k]
                    b = buckets[q + 1]
                    if len(b) == 1:
                        del buckets[q + 1]
                    else:
                        del b[bisect_left(b, k)]
                    insort(buckets[q], k)
                    if q < index.lowest:
                        index.lowest = q
        fidx = bis(cum_probs, file_u())
        svc = -log(1.0 - svc_u()) / svc_param if service_is_exp else svc_param
        decision = decide(user, fidx, njobs)
        k = decision.server
        if hook is not None:
            hook(t, user, fidx, cands_by_file[fidx], njobs, decision)
        start = free_at[k]
        if start < t:
            start = t
        free_at[k] = done = start + svc
        if i >= warmup:
            if i == warmup:
                t_meas_start = t
                carried = [d for d, _ in dep_heap]
            w = done - t
            sum_wait += w
            if i < late_from:
                sum_wait_early += w
            else:
                sum_wait_late += w
            sum_cost += rows[user][k]
            sum_queries += decision.queries_used
            if done > t_meas_end:
                t_meas_end = done
        push(dep_heap, (done, k))
        njobs[k] += 1
        if index is not None:
            if buckets is None:
                index.total += 1
            else:
                # k moves from bucket q - 1 to bucket q.
                q = njobs[k]
                b = buckets[q - 1]
                if len(b) == 1:
                    del buckets[q - 1]
                    if index.lowest == q - 1:
                        index.lowest = q
                else:
                    del b[bisect_left(b, k)]
                insort(buckets[q], k)

    # Jobs in system integrated over the window: every counted sojourn lies
    # inside it, and a carried warmup job counts until it departs or the
    # window ends.
    area = sum_wait + sum(min(d, t_meas_end) - t_meas_start for d in carried)
    span = t_meas_end - t_meas_start
    avg_jobs = area / (span * n_servers) if span > 0.0 else 0.0
    n_early = n_counted // 2
    if n_early and sum_wait_early > 0.0:
        wait_growth = (sum_wait_late / (n_counted - n_early)) / (sum_wait_early / n_early)
    else:
        wait_growth = 1.0
    return RunResult(
        avg_cost=sum_cost / n_counted,
        avg_wait=sum_wait / n_counted,
        avg_queries=sum_queries / n_counted,
        avg_jobs=avg_jobs,
        counted_events=n_counted,
        seed_used=run_seed,
        wait_growth=wait_growth,
    )
