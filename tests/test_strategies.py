"""Unit behavior of the five mapping strategies and their shared draw discipline."""

import math
from collections import Counter
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from cdnsim.engine import run_simulation
from cdnsim.model import StrategySpec, default_config
from cdnsim.popularity import candidate_table, proportional_placement, zipf_profile
from cdnsim.strategies import (
    MappingDecision,
    bind_strategy,
    mcs_map,
    mcs_prep,
    min_cost_map,
    min_cost_prep,
    min_queue_map,
    pss_map,
    wmc_map,
    wmc_prep,
)
from cdnsim.topology import manhattan_cost_matrix, random_lattice_layout


def test_min_cost_picks_cheapest_and_never_queries():
    rng = Random(0)
    decision = min_cost_map(0, (0, 1, 2), (4.0, 1.0, 9.0), rng)
    assert decision == MappingDecision(server=1, queries_used=0)


def test_min_queue_picks_least_loaded_and_queries_all():
    rng = Random(0)
    decision = min_queue_map(0, (0, 2, 3), (9, 9, 4, 2), rng)
    assert decision == MappingDecision(server=3, queries_used=3)


def test_wmc_hand_example():
    # costs (4, 6), queues (3, 1), weight 0.5:
    # normalizers 10 and 4; scores 0.575 vs 0.425, so the dearer but
    # emptier server wins.
    rng = Random(0)
    decision = wmc_map(0, (0, 1), (4.0, 6.0), (3, 1), 0.5, rng)
    assert decision == MappingDecision(server=1, queries_used=2)


def test_wmc_weight_one_is_cost_argmin_weight_zero_is_queue_argmin():
    rng = Random(1)
    costs = (5.0, 2.0, 7.0)
    queues = (0, 6, 1)
    assert wmc_map(0, (0, 1, 2), costs, queues, 1.0, rng).server == 1
    assert wmc_map(0, (0, 1, 2), costs, queues, 0.0, rng).server == 0


def test_wmc_scale_invariance():
    # Scores are shares, so scaling all costs (or queues) by a constant
    # cannot change the decision.
    costs = (3.0, 5.0, 4.0)
    queues = (2, 1, 4)
    for weight in (0.0, 0.3, 0.7, 1.0):
        a = wmc_map(0, (0, 1, 2), costs, queues, weight, Random(9)).server
        b = wmc_map(0, (0, 1, 2), tuple(10 * c for c in costs),
                    tuple(10 * q for q in queues), weight, Random(9)).server
        assert a == b


def test_wmc_zero_cost_normalizer_falls_back_to_queue_share():
    rng = Random(2)
    decision = wmc_map(0, (0, 1), (0.0, 0.0), (5, 2), 0.9, rng)
    assert decision.server == 1


def test_wmc_zero_queue_normalizer_falls_back_to_cost_share():
    rng = Random(2)
    decision = wmc_map(0, (0, 1), (3.0, 1.0), (0, 0), 0.1, rng)
    assert decision.server == 1


def test_mcs_hand_example():
    # Probe the two cheapest of costs (5, 2, 9, 4): servers 1 and 3.
    # Queues (1, 7, 0, 0) make server 3 the emptier probe.
    rng = Random(0)
    decision = mcs_map(0, (0, 1, 2, 3), (5.0, 2.0, 9.0, 4.0), (1, 7, 0, 0), 2, rng)
    assert decision == MappingDecision(server=3, queries_used=2)


def test_mcs_probe_count_caps_at_candidate_count():
    rng = Random(0)
    decision = mcs_map(0, (0, 1), (1.0, 2.0), (5, 5), 10, rng)
    assert decision.queries_used == 2


def test_mcs_prep_boundary_classification():
    candidates = (0, 1, 2, 3, 4)
    costs = (1.0, 3.0, 3.0, 3.0, 0.5)
    base, boundary, need = mcs_prep(candidates, costs, 3)
    assert base == (0, 4)
    assert boundary == (1, 2, 3)
    assert need == 1
    # Exact fit at the threshold collapses to a fixed probe set.
    base, boundary, need = mcs_prep(candidates, (1.0, 3.0, 2.0, 5.0, 9.0), 3)
    assert base == (0, 1, 2)
    assert boundary == ()
    assert need == 0


def test_mcs_boundary_sampling_is_uniform():
    # Costs tie three servers at the cut with one slot left; each should be
    # probed about a third of the time.
    candidates = (0, 1, 2, 3)
    costs = (0.0, 2.0, 2.0, 2.0)
    queues = (9, 0, 0, 0)
    rng = Random(44)
    hits = Counter()
    n = 6000
    for _ in range(n):
        decision = mcs_map(0, candidates, costs, queues, 2, rng)
        assert decision.queries_used == 2
        hits[decision.server] += 1
    assert hits[0] == 0  # loaded cheap server always loses the queue stage
    for k in (1, 2, 3):
        assert abs(hits[k] / n - 1 / 3) < 0.03


def test_tie_break_is_uniform_over_argmin_set():
    rng = Random(7)
    hits = Counter()
    n = 9000
    for _ in range(n):
        hits[min_queue_map(0, (0, 1, 2), (4, 4, 4), rng).server] += 1
    for k in (0, 1, 2):
        assert abs(hits[k] / n - 1 / 3) < 0.03


def test_pss_extremes_replay_pure_strategies_draw_for_draw():
    costs = (4.0, 1.0, 1.0, 8.0)
    queues = (0, 3, 0, 0)
    candidates = (0, 1, 2, 3)
    for seed in range(200):
        a_rng, b_rng = Random(seed), Random(seed)
        a = pss_map(0, candidates, costs, queues, 0.0, a_rng)
        b = min_cost_map(0, candidates, costs, b_rng)
        assert a == b
        assert a_rng.getstate() == b_rng.getstate()

        a_rng, b_rng = Random(seed), Random(seed)
        a = pss_map(0, candidates, costs, queues, 1.0, a_rng)
        b = min_queue_map(0, candidates, queues, b_rng)
        assert a == b
        assert a_rng.getstate() == b_rng.getstate()


def test_mcs_with_full_probe_budget_replays_min_queue():
    costs = (4.0, 1.0, 1.0, 8.0)
    queues = (2, 3, 0, 0)
    candidates = (0, 1, 2, 3)
    for seed in range(200):
        a_rng, b_rng = Random(seed), Random(seed)
        a = mcs_map(0, candidates, costs, queues, 4, a_rng)
        b = min_queue_map(0, candidates, queues, b_rng)
        assert a == b
        assert a_rng.getstate() == b_rng.getstate()


def test_every_strategy_consumes_the_stream_identically_on_singletons():
    # One candidate, so no ties anywhere; each call must still burn its
    # pick draw so downstream draws stay aligned across strategies.
    for fn in (
        lambda r: min_cost_map(0, (2,), (0.0, 0.0, 1.0), r),
        lambda r: min_queue_map(0, (2,), (0, 0, 5), r),
        lambda r: pss_map(0, (2,), (0.0, 0.0, 1.0), (0, 0, 5), 0.4, r),
        lambda r: wmc_map(0, (2,), (0.0, 0.0, 1.0), (0, 0, 5), 0.4, r),
        lambda r: mcs_map(0, (2,), (0.0, 0.0, 1.0), (0, 0, 5), 1, r),
    ):
        rng = Random(11)
        ref = Random(11)
        decision = fn(rng)
        assert decision.server == 2
        ref.random()
        assert rng.getstate() == ref.getstate()


def test_pss_branch_fraction_matches_switch_probability():
    # The queries field reveals the branch: queue branch polls all
    # candidates, cost branch polls none.
    costs = (1.0, 2.0)
    queues = (1, 0)
    rng = Random(3)
    for zeta in (0.25, 0.5, 0.75):
        polled = 0
        n = 8000
        for _ in range(n):
            if pss_map(0, (0, 1), costs, queues, zeta, rng).queries_used:
                polled += 1
        assert abs(polled / n - zeta) < 0.02


def test_pss_rescaled_draw_is_uniform_within_each_branch():
    # Within the queue branch the reused draw must still break ties
    # uniformly; same for the cost branch.
    rng = Random(21)
    queue_hits = Counter()
    cost_hits = Counter()
    n = 20000
    for _ in range(n):
        decision = pss_map(0, (0, 1), (5.0, 5.0), (2, 2), 0.5, rng)
        (queue_hits if decision.queries_used else cost_hits)[decision.server] += 1
    for hits in (queue_hits, cost_hits):
        total = hits[0] + hits[1]
        assert abs(hits[0] / total - 0.5) < 0.03


def test_prep_paths_are_draw_identical_to_plain_calls():
    costs = (4.0, 1.0, 1.0, 8.0)
    queues = (2, 3, 0, 0)
    candidates = (0, 1, 2, 3)
    prep_cost = min_cost_prep(candidates, costs)
    prep_mcs = mcs_prep(candidates, costs, 2)
    for seed in range(100):
        a_rng, b_rng = Random(seed), Random(seed)
        assert min_cost_map(0, candidates, costs, a_rng, prep=prep_cost) == \
            min_cost_map(0, candidates, costs, b_rng)
        assert a_rng.getstate() == b_rng.getstate()

        a_rng, b_rng = Random(seed), Random(seed)
        assert mcs_map(0, candidates, costs, queues, 2, a_rng, prep=prep_mcs) == \
            mcs_map(0, candidates, costs, queues, 2, b_rng)
        assert a_rng.getstate() == b_rng.getstate()


def _wmc_reference(candidates, costs, queues, cost_weight, rng):
    # Per-request scoring with no precomputation: the float expressions
    # the memoized wmc path must reproduce exactly.
    cost_total = 0.0
    queue_total = 0
    for k in candidates:
        cost_total += costs[k]
        queue_total += queues[k]
    best = None
    ties = []
    for k in candidates:
        score = 0.0
        if cost_total > 0.0:
            score += cost_weight * (costs[k] / cost_total)
        if queue_total > 0:
            score += (1.0 - cost_weight) * (queues[k] / queue_total)
        if best is None or score < best:
            best = score
            ties = [k]
        elif score == best:
            ties.append(k)
    j = int(rng.random() * len(ties))
    return MappingDecision(ties[min(j, len(ties) - 1)], len(candidates))


@settings(max_examples=200, deadline=None)
@given(
    servers=st.lists(
        st.tuples(st.sampled_from((0.0, 1.0, 2.0, 3.0, 7.5)), st.integers(0, 3)),
        min_size=1, max_size=6,
    ),
    weight=st.sampled_from((0.0, 0.3, 0.5, 0.6, 0.9, 1.0)) | st.floats(0, 1),
    seed=st.integers(0, 2**32),
)
# Exact score ties that a reordered float expression would break or make.
@example(servers=[(0.0, 3), (1.0, 2), (2.0, 2)], weight=0.3, seed=0)
@example(servers=[(2.0, 3), (3.0, 1), (0.0, 3), (2.0, 0)], weight=0.6, seed=1)
def test_wmc_prep_path_matches_reference_scoring(servers, weight, seed):
    candidates = tuple(range(len(servers)))
    costs = tuple(c for c, _ in servers)
    queues = tuple(q for _, q in servers)
    prep = wmc_prep(candidates, costs, weight)
    ref_rng, plain_rng, prep_rng = Random(seed), Random(seed), Random(seed)
    expected = _wmc_reference(candidates, costs, queues, weight, ref_rng)
    assert wmc_map(0, candidates, costs, queues, weight, plain_rng) == expected
    assert wmc_map(0, candidates, costs, queues, weight, prep_rng, prep=prep) == expected
    assert ref_rng.getstate() == plain_rng.getstate() == prep_rng.getstate()


# Each cost with its upper float neighbour: weighted shares of such pairs
# often round to one float (11 and the next float up at weight 0.7 both
# give 0.308), a tie the costs themselves do not have.
_WMC_COSTS = (1.0, 2.0, 3.0, 5.0, 7.5, 11.0)
_wmc_costs = st.sampled_from(
    (0.0,) + _WMC_COSTS + tuple(math.nextafter(c, math.inf) for c in _WMC_COSTS))
# nextafter(1, 0) leaves a load weight of 2**-53, so queue terms come out
# near or below one ulp of the share they are added to.
_wmc_weights = st.sampled_from(
    (0.0, 0.25, 0.5, 0.7, 0.75, 0.9, 0.97, 1.0, math.nextafter(1.0, 0.0))) | st.floats(0, 1)


@st.composite
def _wmc_scan_cases(draw):
    # (candidates, costs, queues) on up to 100 servers. Candidates are a
    # shuffled subset, so candidate order is not server order; costs may all
    # be equal; queues are all zero in about a fifth of the cases.
    n_servers = draw(st.integers(1, 100))
    shuffled = draw(st.permutations(range(n_servers)))
    candidates = tuple(shuffled[: draw(st.integers(1, n_servers))])
    if draw(st.booleans()):
        costs = (draw(_wmc_costs),) * n_servers
    else:
        costs = tuple(draw(st.lists(_wmc_costs, min_size=n_servers, max_size=n_servers)))
    if draw(st.integers(0, 4)) == 0:
        queues = (0,) * n_servers
    else:
        queues = tuple(draw(st.lists(st.integers(0, 3) | st.just(30),
                                     min_size=n_servers, max_size=n_servers)))
    return candidates, costs, queues


@settings(max_examples=300, deadline=None)
@given(case=_wmc_scan_cases(), weight=_wmc_weights, seed=st.integers(0, 2**32))
# Servers 0 and 1 differ in cost, but their shares round to one float and
# both have empty queues: a tie only after rounding, listed out of order.
@example(case=((2, 0, 1), (11.0, math.nextafter(11.0, math.inf), 3.0), (0, 0, 5)),
         weight=0.7, seed=3)
# Server 0's queue term (2**-53 / 31) is below half an ulp of its share, so
# it ties server 1, whose queue is empty.
@example(case=((1, 0, 2), (1.0, 1.0, 2.0), (1, 0, 30)),
         weight=math.nextafter(1.0, 0.0), seed=5)
# Server 1 is visited first (share 0.0625) but ties server 0 (share
# 0.1875) once its queue term 0.125 is added: the tie must go back into
# candidate order before the pick.
@example(case=((0, 1, 2), (3.0, 1.0, 4.0), (0, 1, 3)), weight=0.5, seed=0)
def test_wmc_early_exit_matches_full_scan(case, weight, seed):
    candidates, costs, queues = case
    prep = wmc_prep(candidates, costs, weight)
    ref_rng, plain_rng, prep_rng = Random(seed), Random(seed), Random(seed)
    expected = _wmc_reference(candidates, costs, queues, weight, ref_rng)
    assert wmc_map(0, candidates, costs, queues, weight, plain_rng) == expected
    assert wmc_map(0, candidates, costs, queues, weight, prep_rng, prep=prep) == expected
    assert ref_rng.getstate() == plain_rng.getstate() == prep_rng.getstate()


class _CountingQueues(list):
    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


def test_wmc_scan_stops_at_first_share_above_best():
    # Costs 1..100 and one job everywhere: every queue term is 0.5 / 100,
    # the best score is share(1) + 0.005, and share(c) = 0.5 c / 5050 first
    # exceeds it at c = 52. The queue total reads all 100 queues; the scan
    # reads the 51 it scores.
    candidates = tuple(range(100))
    costs = tuple(float(c) for c in range(1, 101))
    queues = _CountingQueues([1] * 100)
    rng, ref_rng = Random(4), Random(4)
    decision = wmc_map(0, candidates, costs, queues, 0.5, rng)
    assert queues.reads == 100 + 51
    assert decision == _wmc_reference(candidates, costs, [1] * 100, 0.5, ref_rng)
    assert decision.server == 0 and decision.queries_used == 100
    assert rng.getstate() == ref_rng.getstate()


def test_bind_strategy_wmc_at_full_replication_matches_plain_calls():
    # Every server holds every file, so all files share one candidate tuple
    # and one memo slot per user. Queue states come from a short M=70 run.
    cfg = default_config(cache_size=70, horizon_events=3_000)
    rng = Random(70)
    costs = manhattan_cost_matrix(random_lattice_layout(
        cfg.n_users, cfg.n_servers, cfg.lattice_side, rng))
    allocation = proportional_placement(
        zipf_profile(cfg.n_files, cfg.zipf_beta), cfg.n_servers, 70, rng)
    cands = candidate_table(allocation)
    assert len(set(cands)) == 1 and len(cands[0]) == 100

    states = []
    run_simulation(
        cfg, "wmc:0.5", 9, cost_matrix=costs, allocation=allocation,
        decision_hook=lambda t, user, fidx, c, queues, d: states.append(
            (user, fidx, tuple(queues))),
    )
    assert len(states) == 3_000
    assert sum(1 for _, _, q in states if sum(q) > 0) > 2_900

    rows = [list(r) for r in costs.entries]
    for weight in (0.25, 0.5, 0.75):
        bound_rng, plain_rng = Random(weight), Random(weight)
        decide = bind_strategy(StrategySpec("wmc", weight), rows, cands,
                               cfg.n_users, cfg.n_files, bound_rng)
        for user, fidx, queues in states:
            assert decide(user, fidx, queues) == wmc_map(
                user, cands[fidx], rows[user], queues, weight, plain_rng)
        assert bound_rng.getstate() == plain_rng.getstate()

@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_decisions_are_feasible_and_queries_accounted(data):
    n_servers = data.draw(st.integers(1, 6), label="n_servers")
    candidates = tuple(sorted(data.draw(
        st.sets(st.integers(0, n_servers - 1), min_size=1), label="candidates")))
    costs = tuple(data.draw(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=n_servers,
                 max_size=n_servers), label="costs"))
    queues = tuple(data.draw(
        st.lists(st.integers(0, 50), min_size=n_servers, max_size=n_servers),
        label="queues"))
    rng = Random(data.draw(st.integers(0, 2**32), label="seed"))

    m = len(candidates)
    checks = [
        (min_cost_map(0, candidates, costs, rng), 0),
        (min_queue_map(0, candidates, queues, rng), m),
        (pss_map(0, candidates, costs, queues,
                 data.draw(st.floats(0, 1), label="zeta"), rng), None),
        (wmc_map(0, candidates, costs, queues,
                 data.draw(st.floats(0, 1), label="alpha"), rng), m),
    ]
    delta = data.draw(st.integers(1, 8), label="delta")
    checks.append((mcs_map(0, candidates, costs, queues, delta, rng), min(delta, m)))
    for decision, expected_queries in checks:
        assert decision.server in candidates
        if expected_queries is not None:
            assert decision.queries_used == expected_queries
        else:
            assert decision.queries_used in (0, m)


def test_bind_strategy_matches_plain_calls_for_every_kind():
    cost_rows = ((4.0, 1.0, 1.0), (2.0, 2.0, 9.0))
    # Files 0 and 2 have equal candidate tuples and share a memo slot.
    candidates_by_file = ((0, 1, 2), (0, 2), (0, 1, 2))
    queues = (1, 0, 1)

    cases = [
        (StrategySpec("mincost", None),
         lambda u, f, q, r: min_cost_map(u, candidates_by_file[f], cost_rows[u], r)),
        (StrategySpec("minqueue", None),
         lambda u, f, q, r: min_queue_map(u, candidates_by_file[f], q, r)),
        (StrategySpec("pss", 0.5),
         lambda u, f, q, r: pss_map(u, candidates_by_file[f], cost_rows[u], q, 0.5, r)),
        (StrategySpec("wmc", 0.5),
         lambda u, f, q, r: wmc_map(u, candidates_by_file[f], cost_rows[u], q, 0.5, r)),
        (StrategySpec("mcs", 2),
         lambda u, f, q, r: mcs_map(u, candidates_by_file[f], cost_rows[u], q, 2, r)),
    ]
    for spec, plain in cases:
        bound_rng, plain_rng = Random(5), Random(5)
        decide = bind_strategy(spec, cost_rows, candidates_by_file, 2, 3, bound_rng)
        for user, fidx in ((0, 0), (1, 1), (0, 1), (0, 0), (1, 0), (0, 2), (1, 2)):
            assert decide(user, fidx, queues) == plain(user, fidx, queues, plain_rng)
        assert bound_rng.getstate() == plain_rng.getstate()


def test_bind_strategy_rejects_unknown_kind():
    spec = StrategySpec("pss", 0.5)
    object.__setattr__(spec, "kind", "bogus")
    with pytest.raises(ValueError):
        bind_strategy(spec, ((0.0,),), ((0,),), 1, 1, Random(0))
