"""Unit behavior of the five mapping strategies and their shared draw discipline."""

import math
from collections import Counter
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from cdnsim.engine import run_simulation
from cdnsim.model import StrategySpec, default_config
from cdnsim.popularity import CandidateTable, candidate_table, proportional_placement, zipf_profile
from cdnsim.strategies import MappingDecision, _sample_ties, bind_strategy, mcs_prep, queue_index
from cdnsim.topology import manhattan_cost_matrix, random_lattice_layout


def _bind(kind, param, candidates, costs, rng):
    # bind_strategy on a table of one user and one file with these
    # candidates; call the result as decide(0, 0, queues).
    return bind_strategy(StrategySpec(kind, param), (costs,),
                         CandidateTable([candidates], len(costs)), 1, 1, rng)


def _decide(kind, param, candidates, costs, queues, rng):
    # One request through a fresh binding.
    return _bind(kind, param, candidates, costs, rng)(0, 0, queues)


def test_a_scaled_uniform_draw_stays_below_its_count():
    # The wmc and mcs closures pick ties[int(random() * len(ties))] unguarded:
    # random() is at most 1 - 2**-53, and that times n truncates below n.
    top = 1.0 - 2.0**-53
    assert all(int(top * n) < n for n in range(1, 10**4 + 1))
    assert all(int(top * 2**e) < 2**e for e in range(54))


def test_min_cost_picks_cheapest_and_never_queries():
    rng = Random(0)
    decision = _decide("mincost", None, (0, 1, 2), (4.0, 1.0, 9.0), (0, 0, 0), rng)
    assert decision == MappingDecision(server=1, queries_used=0)


def test_min_queue_picks_least_loaded_and_queries_all():
    rng = Random(0)
    decision = _decide("minqueue", None, (0, 2, 3), (0.0,) * 4, (9, 9, 4, 2), rng)
    assert decision == MappingDecision(server=3, queries_used=3)


def test_wmc_hand_example():
    # costs (4, 6), queues (3, 1), weight 0.5:
    # normalizers 10 and 4; scores 0.575 vs 0.425, so the dearer but
    # emptier server wins.
    rng = Random(0)
    decision = _decide("wmc", 0.5, (0, 1), (4.0, 6.0), (3, 1), rng)
    assert decision == MappingDecision(server=1, queries_used=2)


def test_wmc_weight_one_is_cost_argmin_weight_zero_is_queue_argmin():
    rng = Random(1)
    costs = (5.0, 2.0, 7.0)
    queues = (0, 6, 1)
    assert _decide("wmc", 1.0, (0, 1, 2), costs, queues, rng).server == 1
    assert _decide("wmc", 0.0, (0, 1, 2), costs, queues, rng).server == 0


def test_wmc_scale_invariance():
    # Scores are shares, so scaling all costs (or queues) by a constant
    # cannot change the decision.
    costs = (3.0, 5.0, 4.0)
    queues = (2, 1, 4)
    for weight in (0.0, 0.3, 0.7, 1.0):
        a = _decide("wmc", weight, (0, 1, 2), costs, queues, Random(9)).server
        b = _decide("wmc", weight, (0, 1, 2), tuple(10 * c for c in costs),
                    tuple(10 * q for q in queues), Random(9)).server
        assert a == b


def test_wmc_zero_cost_normalizer_falls_back_to_queue_share():
    rng = Random(2)
    decision = _decide("wmc", 0.9, (0, 1), (0.0, 0.0), (5, 2), rng)
    assert decision.server == 1


def test_wmc_zero_queue_normalizer_falls_back_to_cost_share():
    rng = Random(2)
    decision = _decide("wmc", 0.1, (0, 1), (3.0, 1.0), (0, 0), rng)
    assert decision.server == 1


def test_mcs_hand_example():
    # Probe the two cheapest of costs (5, 2, 9, 4): servers 1 and 3.
    # Queues (1, 7, 0, 0) make server 3 the emptier probe.
    rng = Random(0)
    decision = _decide("mcs", 2, (0, 1, 2, 3), (5.0, 2.0, 9.0, 4.0), (1, 7, 0, 0), rng)
    assert decision == MappingDecision(server=3, queries_used=2)


def test_mcs_probe_count_caps_at_candidate_count():
    rng = Random(0)
    decision = _decide("mcs", 10, (0, 1), (1.0, 2.0), (5, 5), rng)
    assert decision.queries_used == 2


def test_mcs_prep_boundary_classification():
    candidates = (0, 1, 2, 3, 4)
    costs = (1.0, 3.0, 3.0, 3.0, 0.5)
    base, boundary, draws, pooled = mcs_prep(candidates, costs, 3)
    assert base == (0, 4)
    assert boundary == (1, 2, 3)
    # One pick below 3, a 2-bit draw, from Random.sample's pool branch.
    assert draws == ((3, 2),)
    assert pooled
    # Exact fit at the threshold collapses to a fixed probe set.
    base, boundary, draws, pooled = mcs_prep(candidates, (1.0, 3.0, 2.0, 5.0, 9.0), 3)
    assert base == (0, 1, 2)
    assert boundary == ()
    assert draws == ()


@st.composite
def _tie_sample_sizes(draw):
    n = draw(st.integers(2, 200))
    return n, draw(st.integers(1, n - 1))


@settings(max_examples=400, deadline=None)
@given(size=_tie_sample_sizes(), seed=st.integers(0, 2**64))
# Each side of Random.sample's set-size cut: pool at n = 21 (k <= 5) and
# at n = 85 (k = 6, setsize 21 + 64), set branch at n = 22 and n = 86.
@example(size=(21, 5), seed=3)
@example(size=(22, 5), seed=3)
@example(size=(85, 6), seed=4)
@example(size=(86, 6), seed=4)
def test_mcs_tie_sampler_replays_random_sample(size, seed):
    # The probes mcs draws from a cost tie of n servers are the picks of
    # Random.sample on the same stream, in the same order, and leave the
    # stream where sample leaves it.
    n, k = size
    candidates = tuple(range(0, 3 * n, 3))
    base, boundary, draws, pooled = mcs_prep(candidates, (1.0,) * (3 * n), k)
    assert base == () and boundary == candidates and len(draws) == k
    rng, ref = Random(seed), Random(seed)
    assert _sample_ties(boundary, draws, pooled, rng.getrandbits) == ref.sample(boundary, k)
    assert rng.getstate() == ref.getstate()


def test_mcs_boundary_sampling_is_uniform():
    # Costs tie three servers at the cut with one slot left; each should be
    # probed about a third of the time.
    candidates = (0, 1, 2, 3)
    costs = (0.0, 2.0, 2.0, 2.0)
    queues = (9, 0, 0, 0)
    decide = _bind("mcs", 2, candidates, costs, Random(44))
    hits = Counter()
    n = 6000
    for _ in range(n):
        decision = decide(0, 0, queues)
        assert decision.queries_used == 2
        hits[decision.server] += 1
    assert hits[0] == 0  # loaded cheap server always loses the queue stage
    for k in (1, 2, 3):
        assert abs(hits[k] / n - 1 / 3) < 0.03


def test_tie_break_is_uniform_over_argmin_set():
    decide = _bind("minqueue", None, (0, 1, 2), (0.0, 0.0, 0.0), Random(7))
    hits = Counter()
    n = 9000
    for _ in range(n):
        hits[decide(0, 0, (4, 4, 4)).server] += 1
    for k in (0, 1, 2):
        assert abs(hits[k] / n - 1 / 3) < 0.03


def test_pss_extremes_replay_pure_strategies_draw_for_draw():
    costs = (4.0, 1.0, 1.0, 8.0)
    queues = (0, 3, 0, 0)
    candidates = (0, 1, 2, 3)
    for seed in range(200):
        a_rng, b_rng = Random(seed), Random(seed)
        a = _decide("pss", 0.0, candidates, costs, queues, a_rng)
        b = _decide("mincost", None, candidates, costs, queues, b_rng)
        assert a == b
        assert a_rng.getstate() == b_rng.getstate()

        a_rng, b_rng = Random(seed), Random(seed)
        a = _decide("pss", 1.0, candidates, costs, queues, a_rng)
        b = _decide("minqueue", None, candidates, costs, queues, b_rng)
        assert a == b
        assert a_rng.getstate() == b_rng.getstate()


def test_mcs_with_full_probe_budget_replays_min_queue():
    costs = (4.0, 1.0, 1.0, 8.0)
    queues = (2, 3, 0, 0)
    candidates = (0, 1, 2, 3)
    for seed in range(200):
        a_rng, b_rng = Random(seed), Random(seed)
        a = _decide("mcs", 4, candidates, costs, queues, a_rng)
        b = _decide("minqueue", None, candidates, costs, queues, b_rng)
        assert a == b
        assert a_rng.getstate() == b_rng.getstate()


def test_every_strategy_consumes_the_stream_identically_on_singletons():
    # One candidate, so no ties anywhere; each call must still burn its
    # pick draw so downstream draws stay aligned across strategies.
    for kind, param in (
        ("mincost", None), ("minqueue", None), ("pss", 0.4), ("wmc", 0.4), ("mcs", 1),
    ):
        rng = Random(11)
        ref = Random(11)
        decision = _decide(kind, param, (2,), (0.0, 0.0, 1.0), (0, 0, 5), rng)
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
        decide = _bind("pss", zeta, (0, 1), costs, rng)
        polled = 0
        n = 8000
        for _ in range(n):
            if decide(0, 0, queues).queries_used:
                polled += 1
        assert abs(polled / n - zeta) < 0.02


def test_pss_rescaled_draw_is_uniform_within_each_branch():
    # Within the queue branch the reused draw must still break ties
    # uniformly; same for the cost branch.
    decide = _bind("pss", 0.5, (0, 1), (5.0, 5.0), Random(21))
    queue_hits = Counter()
    cost_hits = Counter()
    n = 20000
    for _ in range(n):
        decision = decide(0, 0, (2, 2))
        (queue_hits if decision.queries_used else cost_hits)[decision.server] += 1
    for hits in (queue_hits, cost_hits):
        total = hits[0] + hits[1]
        assert abs(hits[0] / total - 0.5) < 0.03


def _wmc_reference(candidates, costs, queues, cost_weight, rng):
    # Per-request scoring with no precomputation: the float expressions
    # the bound wmc closure must reproduce exactly.
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


def _pick_reference(ties, rng):
    j = int(rng.random() * len(ties))
    return ties[min(j, len(ties) - 1)]


def _argmin_reference(candidates, values):
    best = min(values[k] for k in candidates)
    return [k for k in candidates if values[k] == best]


def _min_cost_reference(candidates, costs, rng):
    return MappingDecision(_pick_reference(_argmin_reference(candidates, costs), rng), 0)


def _min_queue_reference(candidates, queues, rng):
    ties = _argmin_reference(candidates, queues)
    return MappingDecision(_pick_reference(ties, rng), len(candidates))


def _pss_reference(candidates, costs, queues, switch_prob, rng):
    # One uniform picks the branch; rescaled, it is the branch's pick draw.
    x = rng.random()
    if switch_prob > 0.0 and x <= switch_prob:
        ties, u, queries = _argmin_reference(candidates, queues), x / switch_prob, len(candidates)
    else:
        ties, queries = _argmin_reference(candidates, costs), 0
        u = x if switch_prob >= 1.0 else (x - switch_prob) / (1.0 - switch_prob)
    j = int(u * len(ties))
    return MappingDecision(ties[min(j, len(ties) - 1)], queries)


def _mcs_reference(candidates, costs, queues, n_choices, rng):
    # Probe set worked out from scratch on every request: everything below
    # the cut cost, plus a uniform sample of the servers tied at the cut
    # (no draw when all of them fit).
    probes = min(n_choices, len(candidates))
    threshold = sorted(costs[k] for k in candidates)[probes - 1]
    base = [k for k in candidates if costs[k] < threshold]
    boundary = [k for k in candidates if costs[k] == threshold]
    need = probes - len(base)
    if probes < len(candidates) and need < len(boundary):
        probed = sorted(base + rng.sample(boundary, need))
    elif probes < len(candidates):
        probed = sorted(base + boundary)
    else:
        probed = list(candidates)
    ties = _argmin_reference(probed, queues)
    return MappingDecision(_pick_reference(ties, rng), len(probed))


def test_prep_paths_are_draw_identical_to_plain_calls():
    # One binding preps mincost and mcs on the first request and reuses
    # the result; the references recompute everything per request.
    # With the second row, mcs samples 2 of the 3 servers tied at cost 1.
    queues = (2, 3, 0, 0)
    candidates = (0, 1, 2, 3)
    for costs in ((4.0, 1.0, 1.0, 8.0), (4.0, 1.0, 1.0, 1.0)):
        for seed in range(100):
            a_rng, b_rng = Random(seed), Random(seed)
            decide = _bind("mincost", None, candidates, costs, a_rng)
            for _ in range(3):
                assert decide(0, 0, queues) == _min_cost_reference(candidates, costs, b_rng)
            assert a_rng.getstate() == b_rng.getstate()

            a_rng, b_rng = Random(seed), Random(seed)
            decide = _bind("mcs", 2, candidates, costs, a_rng)
            for _ in range(3):
                assert decide(0, 0, queues) == _mcs_reference(candidates, costs, queues, 2, b_rng)
            assert a_rng.getstate() == b_rng.getstate()


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
    ref_rng, rng = Random(seed), Random(seed)
    expected = _wmc_reference(candidates, costs, queues, weight, ref_rng)
    assert _decide("wmc", weight, candidates, costs, queues, rng) == expected
    assert ref_rng.getstate() == rng.getstate()


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
    ref_rng, rng = Random(seed), Random(seed)
    expected = _wmc_reference(candidates, costs, queues, weight, ref_rng)
    assert _decide("wmc", weight, candidates, costs, queues, rng) == expected
    assert ref_rng.getstate() == rng.getstate()


class _CountingQueues(list):
    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


def test_wmc_scan_stops_at_first_share_above_best():
    # Costs 1..100 and one job everywhere: every queue term is 0.5 / 100,
    # the best score is share(1) + 0.005, and share(c) = 0.5 c / 5050 first
    # exceeds it at c = 52. Without a jobs collection the queue total reads
    # all 100 queues; the scan reads the 51 it scores. With one, the total
    # is its length and only the scan reads queues.
    candidates = tuple(range(100))
    costs = tuple(float(c) for c in range(1, 101))
    queues = _CountingQueues([1] * 100)
    rng, ref_rng = Random(4), Random(4)
    decision = _decide("wmc", 0.5, candidates, costs, queues, rng)
    assert queues.reads == 100 + 51
    assert decision == _wmc_reference(candidates, costs, [1] * 100, 0.5, ref_rng)
    assert decision.server == 0 and decision.queries_used == 100
    assert rng.getstate() == ref_rng.getstate()

    queues = _CountingQueues([1] * 100)
    jobs_rng = Random(4)
    decide = bind_strategy(StrategySpec("wmc", 0.5), (costs,), CandidateTable([candidates], 100),
                           1, 1, jobs_rng, jobs_in_system=range(100))
    assert decide(0, 0, queues) == decision
    assert queues.reads == 51
    assert jobs_rng.getstate() == rng.getstate()


# Adds 7 and its upper neighbour: over a total of 23 (with a 9) both give
# the share 0.30434782608695654, a tie the costs do not have.
_wmc_twin_costs = st.sampled_from(
    _WMC_COSTS + (0.0, 7.0, math.nextafter(7.0, math.inf), 9.0)
    + tuple(math.nextafter(c, math.inf) for c in _WMC_COSTS))


@st.composite
def _wmc_twin_cases(draw):
    # (candidates, costs, queues, requests) on up to 60 servers: a shuffled
    # candidate subset, costs from _wmc_twin_costs, and the queue vectors of
    # several requests through one binding; about a fifth are all zero.
    n_servers = draw(st.integers(1, 60))
    shuffled = draw(st.permutations(range(n_servers)))
    candidates = tuple(shuffled[: draw(st.integers(1, n_servers))])
    costs = tuple(draw(st.lists(_wmc_twin_costs, min_size=n_servers, max_size=n_servers)))
    queue = st.lists(st.integers(0, 3) | st.just(30), min_size=n_servers, max_size=n_servers)
    requests = draw(st.lists(queue.map(tuple) | st.just((0,) * n_servers), min_size=1, max_size=5))
    return candidates, costs, requests


@settings(max_examples=200, deadline=None)
@given(case=_wmc_twin_cases(), seed=st.integers(0, 2**32))
def test_wmc_zero_replays_minqueue_draw_for_draw(case, seed):
    # At cost weight 0 wmc is bound to minqueue's closure: the same
    # decisions, queries and stream state as minqueue, and as the reference
    # scoring of every candidate's q/Q.
    candidates, costs, requests = case
    rngs = [Random(seed) for _ in range(3)]
    wmc = _bind("wmc", 0.0, candidates, costs, rngs[0])
    minqueue = _bind("minqueue", None, candidates, costs, rngs[1])
    for queues in requests:
        decision = wmc(0, 0, queues)
        assert decision == minqueue(0, 0, queues)
        assert decision == _wmc_reference(candidates, costs, queues, 0.0, rngs[2])
    assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()


@settings(max_examples=100, deadline=None)
@given(n_servers=st.integers(1, 60), n_files=st.integers(1, 3),
       queues=st.lists(st.lists(st.integers(0, 4) | st.just(30), min_size=60, max_size=60),
                       min_size=1, max_size=5),
       seed=st.integers(0, 2**32))
def test_wmc_zero_reads_the_bucket_index_as_minqueue_does(n_servers, n_files, queues, seed):
    # At full replication wmc:0 keeps minqueue's bucket index and decides
    # from its lowest bucket, draw for draw with minqueue and with the
    # reference scoring.
    costs = tuple(float(k % 5) for k in range(n_servers))
    cands = CandidateTable([range(n_servers)] * n_files, n_servers)
    wmc, minqueue = StrategySpec("wmc", 0.0), StrategySpec("minqueue")
    rngs = [Random(seed) for _ in range(3)]
    for state in queues:
        state = state[:n_servers]
        index = queue_index(wmc, cands, state)
        assert index == queue_index(minqueue, cands, state)
        assert index is not None
        fidx = seed % n_files
        decision = bind_strategy(wmc, (costs,), cands, 1, n_files, rngs[0],
                                 queue_index=index)(0, fidx, state)
        assert decision == bind_strategy(minqueue, (costs,), cands, 1, n_files, rngs[1],
                                         queue_index=index)(0, fidx, state)
        assert decision == _wmc_reference(cands[fidx], costs, state, 0.0, rngs[2])
    assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()


@settings(max_examples=200, deadline=None)
@given(case=_wmc_twin_cases(), seed=st.integers(0, 2**32))
# Servers 0 and 1 cost 7 and the float above it; over the total 23 their
# shares are one float, so both tie, in candidate order, where mincost
# would take server 0 alone.
@example(case=((2, 0, 1), (7.0, math.nextafter(7.0, math.inf), 9.0), [(5, 0, 0), (0, 0, 0)]),
         seed=1)
def test_wmc_one_matches_reference_scoring_without_reading_queues(case, seed):
    # At cost weight 1 wmc takes the fixed min-share set: the reference
    # scoring's decision and draws, with len(candidates) queries reported
    # and no queue read.
    candidates, costs, requests = case
    rng, ref_rng = Random(seed), Random(seed)
    decide = _bind("wmc", 1.0, candidates, costs, rng)
    for queues in requests:
        counted = _CountingQueues(queues)
        assert decide(0, 0, counted) == _wmc_reference(candidates, costs, queues, 1.0, ref_rng)
        assert counted.reads == 0
    assert rng.getstate() == ref_rng.getstate()


def test_wmc_one_ties_servers_whose_distinct_costs_round_to_one_share():
    candidates, costs = (2, 0, 1), (7.0, math.nextafter(7.0, math.inf), 9.0)
    assert 7.0 / 23.0 == costs[1] / 23.0
    picks = Counter()
    decide = _bind("wmc", 1.0, candidates, costs, Random(6))
    for _ in range(2000):
        decision = decide(0, 0, (0, 0, 0))
        assert decision.queries_used == 3
        picks[decision.server] += 1
    assert set(picks) == {0, 1} and abs(picks[0] / 2000 - 0.5) < 0.05
    assert queue_index(StrategySpec("wmc", 1.0), CandidateTable([range(3)], 3), [0, 0, 0]) is None


def test_bind_strategy_wmc_at_full_replication_matches_reference_scoring():
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

    rows = costs.entries
    for weight in (0.25, 0.5, 0.75):
        bound_rng, ref_rng = Random(weight), Random(weight)
        decide = bind_strategy(StrategySpec("wmc", weight), rows, cands,
                               cfg.n_users, cfg.n_files, bound_rng)
        for user, fidx, queues in states:
            assert decide(user, fidx, queues) == _wmc_reference(
                cands[fidx], rows[user], queues, weight, ref_rng)
        assert bound_rng.getstate() == ref_rng.getstate()

    # The same states through the engine's queue state, rebuilt from each
    # state: minqueue and the queue branch of pss take the index's lowest
    # bucket, and wmc keeps no index and reads the jobs total as the length
    # of its jobs-in-system collection.
    references = {
        "minqueue": lambda c, costs, q, rng: _min_queue_reference(c, q, rng),
        "pss:0.5": lambda c, costs, q, rng: _pss_reference(c, costs, q, 0.5, rng),
        "wmc:0.5": lambda c, costs, q, rng: _wmc_reference(c, costs, q, 0.5, rng),
    }
    for name, reference in references.items():
        spec = StrategySpec.parse(name)
        bound_rng, ref_rng = Random(name), Random(name)
        for user, fidx, queues in states:
            index = queue_index(spec, cands, queues)
            assert (index is None) == (spec.kind == "wmc")
            decide = bind_strategy(spec, rows, cands, cfg.n_users, cfg.n_files, bound_rng,
                                   queue_index=index, jobs_in_system=range(sum(queues)))
            assert decide(user, fidx, queues) == reference(cands[fidx], rows[user], queues,
                                                           ref_rng)
        assert bound_rng.getstate() == ref_rng.getstate()


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
        (_decide("mincost", None, candidates, costs, queues, rng), 0),
        (_decide("minqueue", None, candidates, costs, queues, rng), m),
        (_decide("pss", data.draw(st.floats(0, 1), label="zeta"),
                 candidates, costs, queues, rng), None),
        (_decide("wmc", data.draw(st.floats(0, 1), label="alpha"),
                 candidates, costs, queues, rng), m),
    ]
    delta = data.draw(st.integers(1, 8), label="delta")
    checks.append((_decide("mcs", delta, candidates, costs, queues, rng), min(delta, m)))
    for decision, expected_queries in checks:
        assert decision.server in candidates
        if expected_queries is not None:
            assert decision.queries_used == expected_queries
        else:
            assert decision.queries_used in (0, m)


@st.composite
def _request_tables(draw):
    # (cost_rows, candidates_by_file, requests) for several users. Costs come
    # from a small set, so rows tie; files draw their candidate tuples from a
    # short list, so several files share a tuple (and a memo slot).
    n_servers = draw(st.integers(1, 5))
    n_users = draw(st.integers(2, 4))
    cost = st.sampled_from((0.0, 1.0, 2.0, 5.0))
    rows = tuple(tuple(draw(st.lists(cost, min_size=n_servers, max_size=n_servers)))
                 for _ in range(n_users))
    subset = st.sets(st.integers(0, n_servers - 1), min_size=1).map(sorted).map(tuple)
    tuples = draw(st.lists(subset, min_size=1, max_size=3))
    cands = tuple(draw(st.lists(st.sampled_from(tuples), min_size=2, max_size=6)))
    queues = st.lists(st.integers(0, 3), min_size=n_servers, max_size=n_servers).map(tuple)
    requests = draw(st.lists(
        st.tuples(st.integers(0, n_users - 1), st.integers(0, len(cands) - 1), queues),
        min_size=1, max_size=30))
    return rows, cands, requests


@settings(max_examples=150, deadline=None)
@given(table=_request_tables(), zeta=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0, 1),
       alpha=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0, 1),
       delta=st.integers(1, 4), seed=st.integers(0, 2**32))
# Two users with opposite cheapest servers ask for file 0 in turn, then for
# file 1, whose only candidate is not user 0's cheapest of file 0: a memo
# keyed without the user, or one slot for every file, picks the wrong server.
@example(table=(((1.0, 0.0), (0.0, 1.0)), ((0, 1), (0,), (0, 1)),
                [(0, 0, (0, 0)), (1, 0, (0, 0)), (0, 1, (0, 0)), (1, 2, (0, 0))]),
         zeta=0.5, alpha=0.5, delta=1, seed=0)
def test_bind_strategy_cold_and_warm_memo_agree_for_every_kind(table, zeta, alpha, delta, seed):
    # A fresh binding per request runs prep on every call (cold memo); one
    # binding for the whole sequence reuses it (warm memo). Both must make
    # the same decisions from the same draws, for every family.
    rows, cands, requests = table
    cands = CandidateTable(cands, len(rows[0]))
    n_users, n_files = len(rows), len(cands)
    for spec in (StrategySpec("mincost"), StrategySpec("minqueue"), StrategySpec("pss", zeta),
                 StrategySpec("wmc", alpha), StrategySpec("mcs", delta)):
        cold_rng, warm_rng = Random(seed), Random(seed)
        warm = bind_strategy(spec, rows, cands, n_users, n_files, warm_rng)
        for user, fidx, queues in requests:
            cold = bind_strategy(spec, rows, cands, n_users, n_files, cold_rng)
            decision = warm(user, fidx, queues)
            assert decision == cold(user, fidx, queues), (spec, user, fidx)
            assert decision.server in cands[fidx]
        assert warm_rng.getstate() == cold_rng.getstate()


def test_bind_strategy_matches_plain_calls_for_every_kind():
    cost_rows = ((4.0, 1.0, 1.0), (2.0, 2.0, 9.0))
    # Files 0 and 2 have equal candidate tuples and share a memo slot.
    candidates_by_file = CandidateTable(((0, 1, 2), (0, 2), (0, 1, 2)), 3)
    queues = (1, 0, 1)

    cases = [
        (StrategySpec("mincost", None),
         lambda u, f, q, r: _min_cost_reference(candidates_by_file[f], cost_rows[u], r)),
        (StrategySpec("minqueue", None),
         lambda u, f, q, r: _min_queue_reference(candidates_by_file[f], q, r)),
        (StrategySpec("pss", 0.5),
         lambda u, f, q, r: _pss_reference(candidates_by_file[f], cost_rows[u], q, 0.5, r)),
        (StrategySpec("wmc", 0.5),
         lambda u, f, q, r: _wmc_reference(candidates_by_file[f], cost_rows[u], q, 0.5, r)),
        (StrategySpec("mcs", 2),
         lambda u, f, q, r: _mcs_reference(candidates_by_file[f], cost_rows[u], q, 2, r)),
    ]
    for spec, plain in cases:
        for seed in range(20):
            bound_rng, plain_rng = Random(seed), Random(seed)
            decide = bind_strategy(spec, cost_rows, candidates_by_file, 2, 3, bound_rng)
            for user, fidx in ((0, 0), (1, 1), (0, 1), (0, 0), (1, 0), (0, 2), (1, 2)):
                assert decide(user, fidx, queues) == plain(user, fidx, queues, plain_rng)
            assert bound_rng.getstate() == plain_rng.getstate()


def test_bindings_over_different_server_counts_keep_their_own_decisions():
    # Two bindings alive at once, over 3 and over 100 servers, called in
    # turn: each must return its own servers and query counts, so rows of
    # prebuilt decisions are shared by bindings over one server count,
    # never across server counts.
    tables = (
        (((4.0, 1.0, 1.0),), CandidateTable([(0, 1, 2)], 3)),
        ((tuple(float(k % 7) for k in range(100)),), CandidateTable([range(100)], 100)),
    )
    references = {
        "mincost": lambda c, costs, q, rng: _min_cost_reference(c, costs, rng),
        "minqueue": lambda c, costs, q, rng: _min_queue_reference(c, q, rng),
        "pss:0.5": lambda c, costs, q, rng: _pss_reference(c, costs, q, 0.5, rng),
        "wmc:0.5": lambda c, costs, q, rng: _wmc_reference(c, costs, q, 0.5, rng),
        "mcs:2": lambda c, costs, q, rng: _mcs_reference(c, costs, q, 2, rng),
    }
    queue_rng = Random(5)
    for name, reference in references.items():
        spec = StrategySpec.parse(name)
        bound = [(bind_strategy(spec, rows, cands, 1, 1, Random(i)), Random(i), rows, cands)
                 for i, (rows, cands) in enumerate(tables)]
        for _ in range(40):
            for decide, ref_rng, rows, cands in bound:
                queues = [queue_rng.randrange(3) for _ in rows[0]]
                assert decide(0, 0, queues) == reference(cands[0], rows[0], queues, ref_rng)


def test_bindings_over_one_server_count_return_the_same_decision_objects():
    # Rows of prebuilt decisions are kept per process, by server count and
    # query count: two live bindings, of one family or of two, return one
    # object for one (server, queries) decision.
    costs = (4.0, 1.0, 1.0)
    queues = [2, 0, 1]
    first = _bind("minqueue", None, (0, 1, 2), costs, Random(0))
    second = _bind("minqueue", None, (0, 1, 2), costs, Random(1))
    weighted = _bind("wmc", 0.5, (0, 1, 2), costs, Random(2))
    decision = first(0, 0, queues)
    assert decision == MappingDecision(1, 3)
    assert second(0, 0, queues) is decision
    assert weighted(0, 0, queues) is decision


def test_decision_hook_receives_mapping_decisions_with_documented_queries():
    # At M=8 every decision scans its candidates; at M=70 every file is on
    # every server, so minqueue and pss read the engine's queue index and
    # wmc the length of its departure heap.
    # Either way the hook receives MappingDecision objects whose
    # queries_used is the family's documented count.
    documented = {
        "mincost": lambda n: {0},
        "minqueue": lambda n: {n},
        "pss:0.5": lambda n: {0, n},
        "wmc:0.5": lambda n: {n},
        "mcs:2": lambda n: {min(2, n)},
        "mcs:500": lambda n: {n},
    }
    for cache_size in (8, 70):
        cfg = default_config(cache_size=cache_size, horizon_events=2_000)
        for name, allowed in documented.items():
            seen = []
            run_simulation(cfg, name, 3, decision_hook=lambda t, user, fidx, cands, queues, d:
                           seen.append((type(d), d.server in cands,
                                        d.queries_used in allowed(len(cands)))))
            assert len(seen) == 2_000
            assert set(seen) == {(MappingDecision, True, True)}, (cache_size, name)


def test_bind_strategy_rejects_unknown_kind():
    spec = StrategySpec("pss", 0.5)
    object.__setattr__(spec, "kind", "bogus")
    with pytest.raises(ValueError):
        bind_strategy(spec, ((0.0,),), CandidateTable([(0,)], 1), 1, 1, Random(0))
