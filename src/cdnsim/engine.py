"""Event-driven simulation core.

One run: Poisson request arrivals superposed over all users, each request
mapped to a candidate server by the configured strategy, FIFO service at
every server, drain after the final arrival until every counted job has
departed. Each job's departure is fixed at its arrival by the FIFO
recursion max(arrival, previous departure at its server) + service
(Lindley, 1952). Events run in nondecreasing time order: departures ahead
of arrivals at equal times, equal departure times by server, then by
arrival.

All randomness of a run derives from one 64-bit run seed, split into
fixed named sub-streams (layout, placement, arrivals, files, service,
strategy) so that two runs with the same seed see identical arrival,
file, and service sequences regardless of the strategy under test.

A run is observed through one hook, called at every arrival after the
strategy has chosen and before the job joins its server. The trace file
is written by such a hook.

For minqueue, pss with a switch probability above 0 and wmc, when some
file's candidates are every server, the run also keeps a
strategies.QueueIndex over the jobs-in-system vector: the jobs total for
wmc, the servers bucketed by queue length with the lowest length for the
others. Each arrival and departure updates it, and decisions on those
files read it instead of scanning every queue.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
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
    over the counted window (arrivals after the warmup, followed to their
    departures).

    cost_matrix and allocation are drawn from the run seed unless injected.
    decision_hook(time, user, file, candidates, queues, decision) is called
    on every arrival once the strategy has chosen, before the job joins, so
    queues[decision.server] excludes it. trace, when given, receives one
    text line per arrival from that same call, before decision_hook:
    time,user,file,server,queue_len_seen,queries.
    """
    validate_config(cfg)
    if isinstance(strategy, str):
        strategy = StrategySpec.parse(strategy)

    n_servers = cfg.n_servers
    n_users = cfg.n_users
    n_files = cfg.n_files

    if cost_matrix is None:
        layout = random_lattice_layout(
            n_users, n_servers, cfg.lattice_side, substream(run_seed, "layout")
        )
        cost_matrix = manhattan_cost_matrix(layout)
    elif cost_matrix.n_users != n_users or cost_matrix.n_servers != n_servers:
        raise ConfigError(
            f"cost matrix is {cost_matrix.n_users}x{cost_matrix.n_servers}, "
            f"config needs {n_users}x{n_servers}"
        )

    profile = zipf_profile(n_files, cfg.zipf_beta)
    if allocation is None:
        allocation = proportional_placement(
            profile, n_servers, cfg.cache_size, substream(run_seed, "placement")
        )
    elif allocation.n_servers != n_servers or allocation.n_files != n_files:
        raise ConfigError("allocation does not match the configured system size")

    rows = cost_matrix.entries
    cands_by_file = candidate_table(allocation)

    index = queue_index(strategy, cands_by_file, [0] * n_servers)
    buckets = None if index is None else index.buckets

    arr_rng = substream(run_seed, "arrivals")
    file_rng = substream(run_seed, "files")
    svc_rng = substream(run_seed, "service")
    decide = bind_strategy(
        strategy, rows, cands_by_file, n_users, n_files, substream(run_seed, "strategy"),
        queue_index=index,
    )

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
    # vector strategies see. Heap entries: (departure, server, arrived_at, window).
    free_at = [0.0] * n_servers
    njobs = [0] * n_servers
    njobs_total = 0

    dep_heap: list = []

    sum_cost = 0.0
    sum_wait = 0.0
    sum_wait_early = 0.0
    sum_wait_late = 0.0
    sum_queries = 0
    counted_outstanding = 0
    counted_departures = 0

    measuring = False
    area = 0.0
    t_last = 0.0
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
    INF = float("inf")
    # Window tag carried by every job: warmup jobs are not counted; counted
    # jobs belong to the early or the late half of the counted window.
    UNCOUNTED, EARLY, LATE = 0, 1, 2

    gap = -log(1.0 - arr_u()) / total_rate
    next_user = bis(cum_rates, arr_u() * total_rate)
    next_t = gap
    arrivals_done = 0

    while True:
        if dep_heap and dep_heap[0][0] <= next_t:
            tdep, k, arrived_at, counted = pop(dep_heap)
            if measuring:
                area += njobs_total * (tdep - t_last)
                t_last = tdep
            njobs[k] -= 1
            njobs_total -= 1
            if index is not None:
                if buckets is None:
                    index.total = njobs_total
                else:
                    # k moves from bucket q + 1 to bucket q.
                    q = njobs[k]
                    b = buckets[q + 1]
                    b.remove(k)
                    if not b:
                        del buckets[q + 1]
                    buckets[q].add(k)
                    if q < index.lowest:
                        index.lowest = q
            if counted:
                w = tdep - arrived_at
                sum_wait += w
                if counted == LATE:
                    sum_wait_late += w
                else:
                    sum_wait_early += w
                counted_departures += 1
                counted_outstanding -= 1
                if counted_outstanding == 0 and arrivals_done >= horizon:
                    t_meas_end = tdep
                    break
        elif arrivals_done < horizon:
            t = next_t
            if measuring:
                area += njobs_total * (t - t_last)
                t_last = t
            x = file_u()
            fidx = bis(cum_probs, x)
            svc = -log(1.0 - svc_u()) / svc_param if service_is_exp else svc_param
            decision = decide(next_user, fidx, njobs)
            k = decision.server
            if arrivals_done < warmup:
                counted = UNCOUNTED
            else:
                counted = EARLY if arrivals_done < late_from else LATE
                if not measuring:
                    measuring = True
                    t_meas_start = t
                    t_last = t
                sum_cost += rows[next_user][k]
                sum_queries += decision.queries_used
                counted_outstanding += 1
            if hook is not None:
                hook(t, next_user, fidx, cands_by_file[fidx], njobs, decision)
            start = free_at[k]
            if start < t:
                start = t
            free_at[k] = done = start + svc
            push(dep_heap, (done, k, t, counted))
            njobs[k] += 1
            njobs_total += 1
            if index is not None:
                if buckets is None:
                    index.total = njobs_total
                else:
                    # k moves from bucket q - 1 to bucket q.
                    q = njobs[k]
                    b = buckets[q - 1]
                    b.remove(k)
                    if not b:
                        del buckets[q - 1]
                        if index.lowest == q - 1:
                            index.lowest = q
                    buckets[q].add(k)
            arrivals_done += 1
            if arrivals_done < horizon:
                gap = -log(1.0 - arr_u()) / total_rate
                next_user = bis(cum_rates, arr_u() * total_rate)
                next_t = t + gap
            else:
                next_t = INF
        else:
            break

    assert arrivals_done == horizon, "simulation ended before the horizon"
    assert counted_departures == n_counted, (
        f"counted {counted_departures} departures for {n_counted} counted arrivals"
    )

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
