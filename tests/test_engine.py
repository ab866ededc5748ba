"""Seed mixing, arrival/service sampling, and the event loop itself."""

import io
import math
import sys
from bisect import bisect_right
from collections import deque
from itertools import accumulate, product
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cdnsim import engine
from cdnsim.engine import mix_seed, run_simulation, substream
from cdnsim.model import (
    OVERLOAD_MIN_EVENTS,
    CacheAllocation,
    ConfigError,
    CostMatrix,
    RateError,
    ServiceSpec,
    SimConfig,
    StrategySpec,
    default_config,
)
from cdnsim.oracle import mm1_mean_sojourn
from cdnsim.popularity import CandidateTable, candidate_table, proportional_placement, zipf_profile
from cdnsim.strategies import bind_strategy, queue_index
from cdnsim.topology import manhattan_cost_matrix, random_lattice_layout


def test_mix_seed_is_deterministic_and_order_sensitive():
    assert mix_seed(3, "arrivals") == mix_seed(3, "arrivals")
    assert mix_seed(3, "arrivals") != mix_seed(3, "files")
    assert mix_seed("a", "b") != mix_seed("b", "a")
    assert mix_seed(1) != mix_seed("1")
    assert 0 <= mix_seed(0) < 2**64


def test_mix_seed_rejects_other_types():
    with pytest.raises(TypeError):
        mix_seed(1.5)
    with pytest.raises(TypeError):
        mix_seed(None)


def test_substreams_are_reproducible_and_mutually_distinct():
    a1 = [substream(9, "arrivals").random() for _ in range(5)]
    a2 = [substream(9, "arrivals").random() for _ in range(5)]
    b = [substream(9, "service").random() for _ in range(5)]
    assert a1 == a2
    assert a1 != b


def test_arrival_gaps_and_user_split():
    cfg = SimConfig(n_servers=2, n_users=2, n_files=1, cache_size=1,
                    arrival_rates=(1.0, 3.0), service=ServiceSpec("exp", 4.0),
                    horizon_events=20_000, lattice_side=5)
    seen = []
    run_simulation(cfg, "minqueue", 12,
                   decision_hook=lambda t, user, *_: seen.append((t, user)))
    n = len(seen)
    assert n == 20_000
    assert abs(seen[-1][0] / n - 0.25) < 0.01
    assert abs(sum(user for _, user in seen) / n - 0.75) < 0.02


def test_exponential_service_mean():
    # At load 0.0005 a job almost never queues: the M/M/1 sojourn
    # 1 / (2 - 0.001) is the service mean 0.5 to within 3e-4.
    cfg = _single_queue_config(horizon=20_000, service="exp:2.0", rate=0.001)
    result = run_simulation(cfg, "mincost", 4, cost_matrix=_UNIT_COST, allocation=_UNIT_ALLOC)
    assert abs(result.avg_wait - 0.5) < 0.02


def test_constant_service_consumes_no_randomness(monkeypatch):
    draws = []

    class CountingRandom(Random):
        def random(self):
            draws.append(1)
            return super().random()

    plain = engine.substream
    monkeypatch.setattr(
        engine, "substream",
        lambda seed, label: CountingRandom(mix_seed(seed, label)) if label == "service"
        else plain(seed, label),
    )
    const = run_simulation(_single_queue_config(horizon=500, service="const:1.5"), "mincost", 4,
                           cost_matrix=_UNIT_COST, allocation=_UNIT_ALLOC)
    assert const.avg_wait >= 1.5
    assert draws == []
    run_simulation(_single_queue_config(horizon=500, service="exp:1.0"), "mincost", 4,
                   cost_matrix=_UNIT_COST, allocation=_UNIT_ALLOC)
    assert len(draws) == 500


@settings(max_examples=300, deadline=None)
@given(
    rates=st.lists(st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=200),
    n_files=st.integers(1, 2000),
    beta=st.floats(0.0, 10.0, allow_nan=False),
)
def test_inverse_transform_draws_stay_in_range(rates, n_files, beta):
    # The engine draws a user by bisecting u * total into the cumulative
    # rates, and a file by bisecting u into the cumulative probabilities,
    # u = random() <= 1 - 2**-53, with no clamp after either.
    top = 1.0 - 2.0**-53
    cum_rates = list(accumulate(rates))
    assert bisect_right(cum_rates, top * cum_rates[-1]) < len(cum_rates)
    cum_probs = zipf_profile(n_files, beta).cumulative()
    assert cum_probs[-1] == 1.0
    assert bisect_right(cum_probs, top) < len(cum_probs)


def test_user_draw_stays_in_range_just_above_the_rate_total_floor():
    # SimConfig requires the rate total to lie strictly above the smallest
    # normal float: there the largest u * total rounds up to the total (a
    # tie to even), and one ulp above it rounds below.
    top = 1.0 - 2.0**-53
    floor = sys.float_info.min
    assert top * floor == floor
    above = math.nextafter(floor, math.inf)
    assert top * above < above
    assert bisect_right([above], top * above) == 0


@pytest.mark.parametrize("cfg, message", [
    # The rates' total is a normal float, but the clock passes the float
    # range within the run.
    (default_config(n_users=1000, arrival_rates=(1e-310,) * 1000, horizon_events=2000,
                    warmup_events=10), "avg_wait is nan"),
    (default_config(service=ServiceSpec("exp", 1e-308)), "avg_wait is inf"),
    # The clock stays finite; only the sojourn sums overflow.
    (default_config(service=ServiceSpec("const", 1e305)), "avg_wait is inf"),
])
def test_runs_whose_times_overflow_are_rate_errors(cfg, message):
    with pytest.raises(RateError) as raised:
        run_simulation(cfg, "mincost", 1)
    assert str(raised.value) == f"{message}: the run's times or sums exceed the float range"


def test_runs_just_inside_the_float_range_finish_and_flag_overload():
    result = run_simulation(default_config(service=ServiceSpec("const", 1e300)), "mincost", 1)
    assert all(map(math.isfinite, (result.avg_wait, result.avg_jobs, result.wait_growth)))
    assert result.overloaded


def _single_queue_config(horizon, service="const:2.0", rate=0.5, warmup=0):
    return SimConfig(
        n_servers=1,
        n_users=1,
        n_files=1,
        cache_size=1,
        arrival_rates=(rate,),
        service=ServiceSpec.parse(service),
        horizon_events=horizon,
        warmup_events=warmup,
    )


_UNIT_COST = CostMatrix([[3.0]])
_UNIT_ALLOC = CacheAllocation([{0}], n_files=1)


def test_single_arrival_exact_result():
    cfg = _single_queue_config(horizon=1)
    result = run_simulation(
        cfg, "mincost", 77, cost_matrix=_UNIT_COST, allocation=_UNIT_ALLOC
    )
    assert result.avg_wait == 2.0
    assert result.avg_cost == 3.0
    assert result.avg_queries == 0.0
    assert result.avg_jobs == 1.0
    assert result.counted_events == 1
    assert result.seed_used == 77
    assert result.wait_growth == 1.0
    assert not result.overloaded


def _two_job_oracle(run_seed, rate, service_rate):
    # Replay the engine's named sub-streams and apply the FIFO recurrence
    # for two jobs at one server by hand.
    arr = substream(run_seed, "arrivals")
    g1 = arr.expovariate(rate)
    arr.random()
    g2 = arr.expovariate(rate)
    arr.random()
    svc = substream(run_seed, "service")
    s1 = svc.expovariate(service_rate)
    s2 = svc.expovariate(service_rate)
    t1 = g1
    t2 = t1 + g2
    d1 = t1 + s1
    w1 = d1 - t1
    if t2 < d1:
        w2 = (d1 + s2) - t2
    else:
        w2 = (t2 + s2) - t2
    return w1, w2, t2 < d1


def test_two_job_fifo_matches_hand_recurrence():
    cfg = _single_queue_config(horizon=2, service="exp:0.5", rate=0.9)
    saw_overlap = saw_gap = saw_growth = False
    for run_seed in range(30):
        w1, w2, overlapped = _two_job_oracle(run_seed, 0.9, 0.5)
        expected = (w1 + w2) / 2
        result = run_simulation(
            cfg, "mincost", run_seed, cost_matrix=_UNIT_COST, allocation=_UNIT_ALLOC
        )
        assert result.avg_wait == expected
        # One job per half: the growth is the plain ratio, and two jobs are
        # too few to flag, however much the second one waited.
        assert result.wait_growth == w2 / w1
        assert not result.overloaded
        saw_overlap |= overlapped
        saw_gap |= not overlapped
        saw_growth |= w2 / w1 > 2.0
    assert saw_overlap and saw_gap and saw_growth


def _fifo_replay(run_seed, horizon, rate, service_rate):
    # Arrival times, queue lengths seen and sojourns of `horizon` jobs at one
    # server, from the engine's sub-streams drawn through expovariate.
    arr = substream(run_seed, "arrivals")
    svc = substream(run_seed, "service")
    times, seen, sojourns = [], [], []
    in_system = deque()
    t = free_at = 0.0
    for _ in range(horizon):
        t += arr.expovariate(rate)
        arr.random()  # the user draw
        while in_system and in_system[0] <= t:
            in_system.popleft()
        seen.append(len(in_system))
        free_at = max(t, free_at) + svc.expovariate(service_rate)
        in_system.append(free_at)
        times.append(t)
        sojourns.append(free_at - t)
    return times, seen, sojourns


def test_exponential_draws_replay_expovariate_at_one_server():
    # 2,000 arrivals at load 0.9: every arrival time and queue length seen,
    # the mean sojourn and its growth, and single-job windows every 100th
    # job equal the replay's exactly.
    horizon, seed = 2000, 7
    times, seen, sojourns = _fifo_replay(seed, horizon, 0.9, 1.0)
    assert 0 in seen and max(seen) > 3

    observed = []
    result = run_simulation(
        _single_queue_config(horizon=horizon, service="exp:1.0", rate=0.9), "mincost", seed,
        cost_matrix=_UNIT_COST, allocation=_UNIT_ALLOC,
        decision_hook=lambda t, user, fidx, cands, queues, d: observed.append((t, queues[0])),
    )
    assert observed == list(zip(times, seen))
    total = early = late = 0.0
    for i, w in enumerate(sojourns):
        total += w
        if i < horizon // 2:
            early += w
        else:
            late += w
    assert result.avg_wait == total / horizon
    assert result.wait_growth == (late / (horizon // 2)) / (early / (horizon // 2))

    for h in range(100, horizon + 1, 100):
        cfg = _single_queue_config(horizon=h, service="exp:1.0", rate=0.9, warmup=h - 1)
        one = run_simulation(cfg, "mincost", seed, cost_matrix=_UNIT_COST,
                             allocation=_UNIT_ALLOC)
        assert one.avg_wait == sojourns[h - 1]


def test_mm1_sojourn_at_moderate_load():
    cfg = _single_queue_config(horizon=30_000, service="exp:1.0", rate=0.5, warmup=3_000)
    expected = mm1_mean_sojourn(0.5, 1.0)
    result = run_simulation(
        cfg, "mincost", 5, cost_matrix=_UNIT_COST, allocation=_UNIT_ALLOC
    )
    assert abs(result.avg_wait - expected) / expected < 0.1


def test_stable_single_queue_is_not_flagged():
    # The M/M/1 queue at rho = 0.5 of acceptance criterion 1, same seeds.
    cfg = default_config(
        n_servers=1, n_users=1, n_files=1, cache_size=1,
        arrival_rates=(0.5,), horizon_events=100_000, warmup_events=10_000,
    )
    for run_idx in range(10):
        result = run_simulation(cfg, "mincost", mix_seed(1000, run_idx))
        assert result.counted_events >= OVERLOAD_MIN_EVENTS
        assert 0.9 < result.wait_growth < 1.1
        assert not result.overloaded


def test_overload_flag_at_full_replication():
    # The trade-off sweep's run-0 workload at cache size 70 (every server
    # holds every file): cost-greedy mapping sends each user to its nearest
    # server, and the busiest nearest server is offered at least 3.6 times
    # its capacity, while shortest-queue mapping over all 100 servers runs
    # at load 0.9 and is stable.
    cfg = default_config(cache_size=70, horizon_events=100_000, warmup_events=10_000)
    seed = mix_seed(5000, "tradeoff", 70, 0)
    layout = random_lattice_layout(
        cfg.n_users, cfg.n_servers, cfg.lattice_side, substream(seed, "layout")
    )
    nearest_load = [0.0] * cfg.n_servers
    for user, row in enumerate(manhattan_cost_matrix(layout).entries):
        best = min(row)
        ties = [k for k, c in enumerate(row) if c == best]
        for k in ties:
            nearest_load[k] += cfg.arrival_rates[user] / len(ties)
    assert max(nearest_load) >= 3.6

    mincost = run_simulation(cfg, "mincost", seed)
    minqueue = run_simulation(cfg, "minqueue", seed)
    assert mincost.overloaded and mincost.wait_growth > 2.0
    assert not minqueue.overloaded


def test_littles_law_relates_jobs_and_sojourn():
    cfg = SimConfig(
        n_servers=4,
        n_users=4,
        n_files=4,
        cache_size=2,
        arrival_rates=(0.6,) * 4,
        service=ServiceSpec("exp", 1.0),
        horizon_events=100_000,
        warmup_events=10_000,
        lattice_side=5,
    )
    result = run_simulation(cfg, "minqueue", 3)
    lhs = result.avg_jobs * 4
    rhs = 2.4 * result.avg_wait
    assert abs(lhs - rhs) / rhs < 0.1


def _jobs_in_system_reference(arrivals, service, warmup, n_servers):
    # Mean jobs per server over [first counted arrival, last counted
    # departure], by sweeping every arrival and FIFO departure in time order.
    # Also says whether some job was still in system at the window's end.
    free_at = [0.0] * n_servers
    events, counted_ends = [], []
    for i, (t, k) in enumerate(arrivals):
        free_at[k] = done = max(t, free_at[k]) + service
        events += [(t, 1), (done, -1)]
        if i >= warmup:
            counted_ends.append(done)
    start, end = arrivals[warmup][0], max(counted_ends)
    area, jobs, last = 0.0, 0, start
    for s, step in sorted(events):
        if s > start:
            s = min(s, end)
            area += jobs * (s - last)
            last = s
        jobs += step
    return area / ((end - start) * n_servers), max(d for d, step in events if step < 0) > end


def test_avg_jobs_integrates_jobs_in_system_over_the_counted_window():
    # Two servers with one file each, so every job's server is fixed by its
    # file. With one counted arrival the window is that job's sojourn, and a
    # warmup job at the other server often outlives it.
    alloc = CacheAllocation([{0}, {1}], n_files=2)
    horizon = 20
    outlived = 0
    for warmup in (0, horizon // 2, horizon - 1):
        cfg = SimConfig(n_servers=2, n_users=2, n_files=2, cache_size=1,
                        arrival_rates=(0.9,) * 2, service=ServiceSpec("const", 1.0),
                        horizon_events=horizon, warmup_events=warmup, lattice_side=3)
        for seed in range(40):
            seen = []
            result = run_simulation(cfg, "mincost", seed, allocation=alloc,
                                    decision_hook=lambda t, u, f, c, q, d: seen.append(
                                        (t, d.server)))
            expected, past_end = _jobs_in_system_reference(seen, 1.0, warmup, 2)
            assert result.avg_jobs == pytest.approx(expected, rel=1e-12), (warmup, seed)
            outlived += past_end
    assert outlived >= 10


def test_same_seed_reproduces_bit_identical_results():
    cfg = default_config(horizon_events=5_000)
    a = run_simulation(cfg, "pss:0.5", 11)
    b = run_simulation(cfg, "pss:0.5", 11)
    c = run_simulation(cfg, "pss:0.5", 12)
    assert a == b
    assert a != c


def test_warmup_only_counts_late_arrivals():
    cfg = default_config(horizon_events=2_000, warmup_events=500)
    result = run_simulation(cfg, "minqueue", 2)
    assert result.counted_events == 1_500


def test_arrival_file_and_time_columns_are_strategy_invariant():
    cfg = default_config(n_servers=20, n_users=20, horizon_events=2_000)
    columns = []
    for strat in ("mincost", "minqueue", "wmc:0.5", "mcs:2"):
        buf = io.StringIO()
        run_simulation(cfg, strat, 21, trace=buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2_000
        columns.append([tuple(line.split(",")[:3]) for line in lines])
    assert columns[0] == columns[1] == columns[2] == columns[3]


def test_trace_lines_agree_with_decision_hook():
    cfg = default_config(n_servers=10, n_users=10, n_files=20, cache_size=4,
                         horizon_events=500)
    buf = io.StringIO()
    seen = []

    def hook(t, user, fidx, cands, queues, decision):
        seen.append((t, user, fidx, tuple(cands), queues[decision.server], decision))

    run_simulation(cfg, "mcs:2", 8, trace=buf, decision_hook=hook)
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(seen) == 500
    prev_t = 0.0
    for line, (t, user, fidx, cands, qlen, decision) in zip(lines, seen):
        st, su, sf, sk, sq, sn = line.split(",")
        assert float(st) == t >= prev_t
        prev_t = t
        assert int(su) == user
        assert int(sf) == fidx
        assert int(sk) == decision.server
        assert decision.server in cands
        assert int(sq) == qlen
        assert int(sn) == decision.queries_used == min(2, len(cands))


def test_injected_topology_is_used_verbatim():
    cfg = SimConfig(
        n_servers=2,
        n_users=1,
        n_files=2,
        cache_size=1,
        arrival_rates=(0.5,),
        service=ServiceSpec("const", 1.0),
        horizon_events=200,
    )
    costs = CostMatrix([[7.0, 7.0]])
    alloc = CacheAllocation([{0}, {1}], n_files=2)
    result = run_simulation(cfg, "mincost", 4, cost_matrix=costs, allocation=alloc)
    assert result.avg_cost == 7.0


def test_injected_pieces_must_match_config_shape():
    cfg = _single_queue_config(horizon=10)
    with pytest.raises(ConfigError):
        run_simulation(cfg, "mincost", 0, cost_matrix=CostMatrix([[1.0, 2.0]]))
    with pytest.raises(ConfigError):
        run_simulation(
            cfg, "mincost", 0,
            allocation=CacheAllocation([{0}, {0}], n_files=1),
        )
    # Right shape, wrong cache size: two files per server where cfg says one.
    cfg = SimConfig(n_servers=2, n_users=1, n_files=2, cache_size=1, arrival_rates=(0.5,),
                    service=ServiceSpec("const", 1.0), horizon_events=10)
    with pytest.raises(ConfigError, match="caches 2 files per server.*cache_size 1"):
        run_simulation(
            cfg, "mincost", 0,
            allocation=CacheAllocation([{0, 1}, {0, 1}], n_files=2),
        )


def test_strategy_accepts_spec_objects_and_strings():
    cfg = default_config(horizon_events=1_000)
    a = run_simulation(cfg, StrategySpec("pss", 0.25), 6)
    b = run_simulation(cfg, "pss:0.25", 6)
    assert a == b


class ShadowFifo:
    """decision_hook that replays every assignment on its own FIFO servers
    and checks the engine against them at each arrival."""

    def __init__(self, cfg, run_seed):
        if cfg.service.kind == "exp":
            draw = substream(run_seed, "service").expovariate
            self.service = lambda: draw(cfg.service.value)
        else:
            self.service = lambda: cfg.service.value
        self.warmup = cfg.warmup_events
        self.completions = [deque() for _ in range(cfg.n_servers)]
        self.free_at = [0.0] * cfg.n_servers
        self.t = 0.0
        self.arrivals = 0
        self.sojourns = []
        self.queries = 0

    def __call__(self, t, user, fidx, cands, queues, decision):
        assert t >= self.t
        self.t = t
        for k, done in enumerate(self.completions):
            while done and done[0] <= t:
                done.popleft()
            assert queues[k] == len(done), f"server {k} at t={t!r}"
        k = decision.server
        assert k in cands
        assert decision.queries_used <= len(cands)
        finish = max(t, self.free_at[k]) + self.service()
        self.free_at[k] = finish
        self.completions[k].append(finish)
        if self.arrivals >= self.warmup:
            self.sojourns.append(finish - t)
            self.queries += decision.queries_used
        self.arrivals += 1


def test_shadow_fifo_agrees_with_engine_for_every_family():
    # Per-user rate 1.3 overloads the 5 servers: backlogs reach hundreds of
    # jobs, so the departure heap holds many queued jobs per server.
    for rate, service in product((0.9, 1.3), ("exp:1", "const:0.9")):
        cfg = default_config(n_servers=5, n_users=5, n_files=10, cache_size=3,
                             horizon_events=3_000, warmup_events=300,
                             arrival_rates=(rate,) * 5,
                             service=ServiceSpec.parse(service))
        for strat in ("mincost", "minqueue", "pss:0.5", "wmc:0.3", "mcs:2"):
            shadow = ShadowFifo(cfg, 14)
            result = run_simulation(cfg, strat, 14, decision_hook=shadow)
            assert shadow.arrivals == 3_000
            assert rate < 1 or result.overloaded
            n = len(shadow.sojourns)
            assert result.avg_wait == pytest.approx(math.fsum(shadow.sojourns) / n, rel=1e-12)
            assert result.avg_queries == shadow.queries / n


class IndexSpy:
    """Stands in for engine.queue_index and, through bind, for
    engine.bind_strategy: builds the one-item list of the least-loaded
    servers and binds as the engine would, and keeps that list and the
    jobs_in_system collection the engine passes, so a decision_hook can
    read the engine's copies."""

    def __init__(self):
        self.built = []
        self.jobs = []

    def __call__(self, spec, candidates_by_file, queues):
        index = queue_index(spec, candidates_by_file, queues)
        self.built.append(index)
        return index

    def bind(self, *args, jobs_in_system=None, **kwargs):
        self.jobs.append(jobs_in_system)
        return bind_strategy(*args, jobs_in_system=jobs_in_system, **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(("minqueue", "pss:0.5", "pss:1", "wmc:0.5", "wmc:0")),
    service=st.sampled_from(("exp:1", "const:1")),
    n_servers=st.integers(1, 40),
    n_users=st.integers(1, 4),
    n_files=st.integers(1, 4),
    load=st.floats(0.3, 1.5),
    seed=st.integers(0, 2**32),
)
# The benchmark's fleet of 100 servers, near and above capacity.
@example(strategy="minqueue", service="exp:1", n_servers=100, n_users=4, n_files=3,
         load=0.98, seed=1)
@example(strategy="minqueue", service="exp:1", n_servers=100, n_users=4, n_files=3,
         load=1.1, seed=1)
@example(strategy="pss:0.5", service="exp:1", n_servers=100, n_users=4, n_files=3,
         load=0.98, seed=1)
@example(strategy="pss:0.5", service="exp:1", n_servers=100, n_users=4, n_files=3,
         load=1.1, seed=1)
def test_engine_queue_state_matches_a_rebuild_at_every_arrival(
        strategy, service, n_servers, n_users, n_files, load, seed):
    # At full replication the engine keeps whole-set queue state; at every
    # arrival it must match the queue vector the strategy sees. The switch
    # rule's one-item list must hold the least-loaded servers, in ascending
    # order, and wmc's jobs collection must hold one entry per job in
    # system. Loads above 1 grow queues, so the least queue length rises
    # and falls.
    cfg = default_config(n_servers=n_servers, n_users=n_users, n_files=n_files,
                         cache_size=n_files, horizon_events=400,
                         arrival_rates=(load * n_servers / n_users,) * n_users,
                         service=ServiceSpec.parse(service))
    spy = IndexSpy()
    switch = strategy != "wmc:0.5"  # the rest take the switch rule, which keeps an index
    arrivals = []

    def hook(t, user, fidx, cands, queues, decision):
        if switch:
            assert spy.built[0] == [[k for k, q in enumerate(queues) if q == min(queues)]]
        else:
            assert len(spy.jobs[0]) == sum(queues)
        arrivals.append(t)

    with mock.patch.object(engine, "queue_index", spy), \
            mock.patch.object(engine, "bind_strategy", spy.bind):
        run_simulation(cfg, strategy, seed, decision_hook=hook)
    assert len(spy.built) == 1 and (spy.built[0] is not None) == switch
    assert len(spy.jobs) == 1 and spy.jobs[0] is not None
    assert len(arrivals) == 400


def test_engine_keeps_no_queue_index_where_no_decision_reads_one():
    # mincost, mcs, pss:0 and wmc:1 never read a whole candidate set's
    # queues, wmc:0.5 reads only their total, and without a tuple of every
    # server no decision can use the index.
    full = default_config(cache_size=70, horizon_events=200)
    partial = default_config(cache_size=8, horizon_events=200)
    cases = [(full, s) for s in ("mincost", "mcs:2", "mcs:200", "pss:0", "wmc:1", "wmc:0.5")]
    cases += [(partial, s) for s in ("minqueue", "pss:0.5", "wmc:0.5")]
    for cfg, strategy in cases:
        spy = IndexSpy()
        with mock.patch.object(engine, "queue_index", spy):
            run_simulation(cfg, strategy, 3)
        assert spy.built == [None], strategy
    allocation = proportional_placement(zipf_profile(70, 0.0), 100, 8, Random(3))
    table = candidate_table(allocation)
    assert tuple(range(100)) not in table
    for strategy in ("minqueue", "pss:0.5", "wmc:0.5"):
        assert queue_index(StrategySpec.parse(strategy), table, [0] * 100) is None


def test_full_replication_runs_share_one_candidate_table():
    # At cache_size == n_files every run gets the same allocation, and the
    # engine, bind_strategy and queue_index read its one candidate table
    # and slot map: no run after the first builds another.
    cfg = default_config(cache_size=70, horizon_events=50)
    run_simulation(cfg, "minqueue", 1)
    shared = candidate_table(proportional_placement(zipf_profile(70, 0.0), 100, 70, Random(0)))
    seen = []
    with mock.patch.object(CandidateTable, "__init__", side_effect=AssertionError("rebuilt")):
        for strategy in ("minqueue", "pss:0.5", "wmc:0.5", "wmc:1", "mcs:2", "mincost"):
            run_simulation(cfg, strategy, 2, decision_hook=lambda t, u, f, cands, q, d:
                           seen.append(cands is shared[f]))
    assert len(seen) == 300 and all(seen)


def test_average_queries_per_strategy_family():
    # Full replication makes every candidate set all servers.
    cfg = SimConfig(
        n_servers=6,
        n_users=6,
        n_files=3,
        cache_size=3,
        arrival_rates=(0.5,) * 6,
        service=ServiceSpec("exp", 1.0),
        horizon_events=2_000,
    )
    assert run_simulation(cfg, "mincost", 1).avg_queries == 0.0
    assert run_simulation(cfg, "minqueue", 1).avg_queries == 6.0
    assert run_simulation(cfg, "wmc:0.5", 1).avg_queries == 6.0
    assert run_simulation(cfg, "mcs:4", 1).avg_queries == 4.0
    pss = run_simulation(cfg, "pss:0.5", 1).avg_queries
    assert 0.0 < pss < 6.0


def test_wait_times_are_service_plus_queueing():
    # With constant service every sojourn is at least the service time.
    cfg = _single_queue_config(horizon=500, service="const:1.25", rate=0.7)
    result = run_simulation(cfg, "mincost", 9, cost_matrix=_UNIT_COST,
                            allocation=_UNIT_ALLOC)
    assert result.avg_wait >= 1.25
    assert math.isfinite(result.avg_wait)
