"""Popularity profiles, proportional placement, and candidate sets."""

import pickle
from random import Random

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cdnsim.engine import run_simulation
from cdnsim.model import (
    AggregateMemoryError,
    CacheAllocation,
    CacheSizeError,
    ConfigError,
    ServiceSpec,
    SimConfig,
    seq_sum,
)
from cdnsim.popularity import (
    CandidateTable,
    PopularityProfile,
    _cache_sampler,
    candidate_table,
    proportional_placement,
    zipf_profile,
)


def test_zipf_uniform_when_beta_zero():
    assert zipf_profile(4, 0.0).probs == (0.25, 0.25, 0.25, 0.25)


def test_zipf_hand_values_beta_one():
    # weights 1, 1/2, 1/3, 1/4; normalizer 25/12
    probs = zipf_profile(4, 1.0).probs
    assert probs == pytest.approx((0.48, 0.24, 0.16, 0.12), abs=1e-12)


def test_zipf_single_file_is_degenerate():
    assert zipf_profile(1, 2.5).probs == (1.0,)


def test_zipf_rejects_bad_args():
    with pytest.raises(ConfigError):
        zipf_profile(0, 1.0)
    with pytest.raises(ConfigError):
        zipf_profile(5, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    n_files=st.integers(1, 1000),
    beta=st.floats(0.0, 10.0, allow_nan=False),
)
def test_zipf_profile_is_a_sorted_distribution(n_files, beta):
    probs = zipf_profile(n_files, beta).probs
    assert len(probs) == n_files
    assert all(p > 0 for p in probs)
    assert abs(sum(probs) - 1.0) < 1e-9
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_zipf_profile_large_library():
    probs = zipf_profile(10_000, 0.8).probs
    assert abs(sum(probs) - 1.0) < 1e-9
    assert probs[0] > probs[-1]


def _engine_file_counts(n_files, beta, n, seed):
    # How often the engine drew each file, recorded by a decision_hook.
    cfg = SimConfig(n_servers=1, n_users=1, n_files=n_files, cache_size=n_files,
                    arrival_rates=(0.5,), service=ServiceSpec("exp", 1.0),
                    horizon_events=n, zipf_beta=beta, lattice_side=2)
    counts = [0] * n_files

    def hook(t, user, fidx, cands, queues, decision):
        counts[fidx] += 1

    run_simulation(cfg, "mincost", seed, decision_hook=hook)
    return counts


def test_sample_file_uniform_frequencies():
    n = 10_000
    counts = _engine_file_counts(4, 0.0, n, 5)
    for c in counts:
        assert abs(c / n - 0.25) < 0.01


def test_sample_file_matches_skewed_profile():
    n = 100_000
    counts = _engine_file_counts(10, 1.0, n, 7)
    expected = [p * n for p in zipf_profile(10, 1.0).probs]
    _, pvalue = stats.chisquare(counts, expected)
    assert pvalue > 0.01


def test_popularity_profile_rejects_non_distribution():
    with pytest.raises(ConfigError):
        PopularityProfile((0.5, 0.2))
    with pytest.raises(ConfigError):
        PopularityProfile(())
    with pytest.raises(ConfigError, match="^popularity profile sums to nan, expected 1$"):
        PopularityProfile((0.5, float("nan"), 0.5))


def test_placement_covers_and_fills_exactly():
    rng = Random(5)
    profile = zipf_profile(70, 0.0)
    alloc = proportional_placement(profile, 100, 8, rng)
    assert alloc.n_servers == 100
    assert alloc.cache_size == 8
    assert set().union(*alloc.server_files) == set(range(70))


def test_placement_full_replication_when_cache_fits_library():
    rng = Random(5)
    alloc = proportional_placement(zipf_profile(70, 1.0), 10, 70, rng)
    everything = frozenset(range(70))
    assert all(files == everything for files in alloc.server_files)


def test_placement_invariants_over_many_trials():
    # CacheAllocation construction re-checks sizes and coverage, so simply
    # surviving construction is the assertion; spot-check sizes anyway.
    profile_u = zipf_profile(70, 0.0)
    profile_w = zipf_profile(70, 1.2)
    rng = Random(99)
    for cache_size in (1, 2, 4, 8, 70):
        for _ in range(2000):
            alloc = proportional_placement(profile_u, 100, cache_size, rng)
            assert all(len(files) == cache_size for files in alloc.server_files)
    for cache_size in (1, 2, 4, 8):
        for _ in range(150):
            proportional_placement(profile_w, 100, cache_size, rng)


def test_placement_rejects_infeasible_geometry():
    # The same typed errors, and messages, as SimConfig.
    with pytest.raises(AggregateMemoryError, match="^3 servers \\* cache_size 2 cannot cover 10 files$"):
        proportional_placement(zipf_profile(10, 0.0), 3, 2, Random(0))  # 6 slots < 10 files
    with pytest.raises(CacheSizeError, match="^cache_size 4 exceeds n_files 3$"):
        proportional_placement(zipf_profile(3, 0.0), 5, 4, Random(0))  # cache > library
    with pytest.raises(ConfigError, match="^cache_size must be >= 1$"):
        proportional_placement(zipf_profile(3, 0.0), 5, 0, Random(0))


def _repair_oracle(pre_caches, n_files):
    # Independent restatement of the repair rule used by the implementation.
    caches = [set(c) for c in pre_caches]
    replicas = [0] * n_files
    for c in caches:
        for f in c:
            replicas[f] += 1
    for missing in range(n_files):
        if replicas[missing]:
            continue
        donor = max(range(n_files), key=lambda f: (replicas[f], -f))
        holder = min(k for k in range(len(caches)) if donor in caches[k])
        caches[holder].discard(donor)
        caches[holder].add(missing)
        replicas[donor] -= 1
        replicas[missing] += 1
    return [frozenset(c) for c in caches]


def test_repair_rule_two_servers_one_slot_each():
    # Skewed two-file library: both servers usually draw file 0 pre-repair,
    # exercising the repair path; replay the sampling to know the pre-repair
    # state and check the public result against an independent repair oracle.
    profile = PopularityProfile((0.95, 0.05))
    seen_duplicate = 0
    for seed in range(300):
        alloc = proportional_placement(profile, 2, 1, Random(seed))
        draw = _cache_sampler(list(profile.probs), 1, Random(seed))
        pre = [frozenset(draw()) for _ in range(2)]
        if pre[0] == pre[1]:
            seen_duplicate += 1
        assert alloc.server_files == tuple(_repair_oracle(pre, 2))
        assert set().union(*alloc.server_files) == {0, 1}
    assert seen_duplicate > 100  # the repair path really ran


def test_repair_prefers_most_replicated_donor_and_lowest_server():
    pre = [{0, 1}, {0, 1}, {0, 2}]
    # file 3 missing; file 0 has 3 replicas (most); server 0 is its lowest holder
    repaired = _repair_oracle(pre, 4)
    assert repaired[0] == frozenset({3, 1})
    assert repaired[1] == frozenset({0, 1})
    assert repaired[2] == frozenset({0, 2})


def _reference_placement(probs, n_servers, cache_size, rng):
    # Independent restatement of the placement rule, before repair: uniform
    # weights draw Random.sample(range(n), cache_size); other weights draw,
    # remove and renormalize, each server summing its own starting pool.
    n = len(probs)
    caches = []
    for _ in range(n_servers):
        if min(probs) == max(probs):
            caches.append(set(rng.sample(range(n), cache_size)))
            continue
        live, pool = list(range(n)), list(probs)
        total = seq_sum(pool)
        picked = set()
        for _ in range(cache_size):
            x = rng.random() * total
            acc = 0.0
            for j, w in enumerate(pool):
                acc += w
                if x < acc:
                    break
            picked.add(live.pop(j))
            total -= pool.pop(j)
        caches.append(picked)
    return caches


def test_placement_matches_the_reference_rule():
    # Seeds, server counts, cache sizes (1 and n_files - 1 included) and
    # exponents (0, the uniform path, included) vary; with few servers the
    # repair runs often.
    case_rng = Random(26)
    repaired = uniform = 0
    for seed in range(360):
        n_files = case_rng.randint(2, 24)
        cache_size = case_rng.choice((1, n_files - 1, case_rng.randint(1, n_files - 1)))
        fewest = -(-n_files // cache_size)
        n_servers = fewest + case_rng.choice((0, 0, 1, 2, case_rng.randint(0, 30)))
        beta = case_rng.choice((0.0, 0.0, 0.4, 1.0, 2.5))
        profile = zipf_profile(n_files, beta)
        pre = _reference_placement(profile.probs, n_servers, cache_size, Random(seed))
        repaired += len(set().union(*pre)) < n_files
        uniform += beta == 0.0
        alloc = proportional_placement(profile, n_servers, cache_size, Random(seed))
        assert alloc.server_files == tuple(_repair_oracle(pre, n_files)), seed
    assert repaired > 100 and uniform > 100  # both paths and the repair really ran


def test_inclusion_probability_uniform_profile():
    # With beta = 0, every file should land in a given cache with
    # probability cache_size / n_files.
    n_placements = 10_000
    n_servers, cache_size, n_files = 100, 8, 70
    rng = Random(31)
    profile = zipf_profile(n_files, 0.0)
    counts = [0] * n_files
    for _ in range(n_placements):
        alloc = proportional_placement(profile, n_servers, cache_size, rng)
        for files in alloc.server_files:
            for f in files:
                counts[f] += 1
    total_caches = n_placements * n_servers
    target = cache_size / n_files
    for f in range(n_files):
        assert abs(counts[f] / total_caches - target) < 0.01


def test_inclusion_probability_tracks_popularity_rank():
    # More popular files should be cached at least as often.
    n_placements = 10_000
    rng = Random(17)
    profile = zipf_profile(10, 1.0)
    counts = [0] * 10
    for _ in range(n_placements):
        alloc = proportional_placement(profile, 20, 3, rng)
        for files in alloc.server_files:
            for f in files:
                counts[f] += 1
    rho, _ = stats.spearmanr(list(profile.probs), counts)
    assert rho == pytest.approx(1.0)
    for a, b in zip(counts, counts[1:]):
        assert a >= b - 0.005 * n_placements * 20


def test_candidate_set_matches_membership_scan():
    rng = Random(3)
    for _ in range(50):
        n_files = rng.randint(2, 12)
        n_servers = rng.randint(1, 8)
        cache_size = rng.randint((n_files + n_servers - 1) // n_servers, n_files)
        alloc = proportional_placement(zipf_profile(n_files, 0.7), n_servers, cache_size, rng)
        table = candidate_table(alloc)
        assert len(table) == n_files
        for f, cands in enumerate(table):
            assert cands == tuple(
                k for k in range(n_servers) if f in alloc.server_files[k]
            )
            assert cands  # never empty


def test_full_replication_candidates_are_all_servers():
    alloc = proportional_placement(zipf_profile(5, 0.0), 4, 5, Random(1))
    assert candidate_table(alloc) == [(0, 1, 2, 3)] * 5


def test_full_replication_is_one_shared_allocation_that_draws_nothing():
    # cache_size == n_files: every server holds every file, whatever the
    # profile, and the placement stream is left as it was.
    rng = Random(4)
    state = rng.getstate()
    alloc = proportional_placement(zipf_profile(70, 1.3), 100, 70, rng)
    assert rng.getstate() == state
    assert alloc == CacheAllocation([set(range(70))] * 100, 70)
    assert len({id(files) for files in alloc.server_files}) == 1  # one frozenset, shared
    assert proportional_placement(zipf_profile(70, 0.0), 100, 70, Random(5)) is alloc
    assert proportional_placement(zipf_profile(70, 0.0), 99, 70, Random(5)) is not alloc
    table = candidate_table(alloc)
    assert table == [tuple(range(100))] * 70
    assert candidate_table(alloc) is table
    assert table.slot == [0] * 70 and table.n_slots == 1 and table.full == 0


def test_an_unpickled_copy_of_an_allocation_shares_its_candidate_table():
    # A pool worker gets an equal copy of a fixed allocation; the table is
    # keyed by the allocation's value, so the copy finds the same one.
    alloc = proportional_placement(zipf_profile(70, 0.0), 100, 8, Random(3))
    copy = pickle.loads(pickle.dumps(alloc))
    assert copy is not alloc and copy == alloc
    assert candidate_table(copy) is candidate_table(alloc)


def test_building_the_candidate_table_leaves_the_allocation_unchanged():
    alloc = proportional_placement(zipf_profile(70, 0.0), 100, 8, Random(4))
    before = pickle.dumps(alloc)
    candidate_table(alloc)
    assert pickle.dumps(alloc) == before


def test_candidate_table_slots_number_distinct_tuples_in_first_appearance_order():
    # CandidateTable is the one slot map: built from the allocation by
    # candidate_table, or from any table of candidate sequences.
    table = CandidateTable([[1, 2], (0,), (1, 2), [0, 1, 2]], 3)
    assert table == [(1, 2), (0,), (1, 2), (0, 1, 2)]
    assert table.slot == [0, 1, 0, 2] and table.n_slots == 3 and table.full == 2
    assert CandidateTable([(2, 1, 0)], 3).full == -1  # not ascending: scanned, not indexed
    alloc = proportional_placement(zipf_profile(70, 0.0), 100, 8, Random(3))
    built = candidate_table(alloc)
    assert built == CandidateTable(list(built), 100) and built.full == -1
    assert built.slot == CandidateTable(list(built), 100).slot
