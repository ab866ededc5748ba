"""Closed-form queueing references and the tiny-instance exhaustive search."""

from random import Random

import pytest

from cdnsim.model import CacheAllocation, ConfigError, CostMatrix, ServiceSpec
from cdnsim.oracle import (
    TinyInstance,
    exhaustive_objective_search,
    mm1_mean_sojourn,
    random_tiny_instance,
    replay_assignments,
    replay_strategy,
    sequence_objective,
    supermarket_mean_queue,
)


def test_mm1_hand_values():
    assert mm1_mean_sojourn(0.5, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert mm1_mean_sojourn(0.9, 1.0) == pytest.approx(10.0, rel=1e-9)
    assert mm1_mean_sojourn(0.99, 1.0) == pytest.approx(100.0, rel=1e-9)
    assert mm1_mean_sojourn(1.0, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_mm1_rejects_unstable_or_degenerate_input():
    for lam, mu in ((1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (0.5, 0.0)):
        with pytest.raises(ConfigError):
            mm1_mean_sojourn(lam, mu)


def test_supermarket_single_choice_matches_mm1_occupancy():
    for load in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert supermarket_mean_queue(load, 1) == pytest.approx(
            load / (1.0 - load), abs=1e-9
        )


def test_supermarket_frozen_values():
    assert supermarket_mean_queue(0.9, 1) == pytest.approx(9.0, abs=1e-6)
    assert supermarket_mean_queue(0.9, 2) == pytest.approx(2.3526516, abs=1e-6)
    assert supermarket_mean_queue(0.5, 2) == pytest.approx(0.6328430, abs=1e-6)


def test_supermarket_improves_with_more_choices():
    values = [supermarket_mean_queue(0.9, d) for d in (1, 2, 3, 4, 5)]
    for a, b in zip(values, values[1:]):
        assert b < a


def test_supermarket_rejects_bad_arguments():
    for load in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ConfigError):
            supermarket_mean_queue(load, 2)
    with pytest.raises(ConfigError):
        supermarket_mean_queue(0.5, 0)


def _single_server_instance():
    return TinyInstance(
        cost=CostMatrix.from_rows([[2.0]]),
        allocation=CacheAllocation.from_sets([{0, 1}], n_files=2),
        arrival_times=(1.0, 1.5),
        users=(0, 0),
        files=(0, 1),
        service=ServiceSpec.constant(1.0),
    )


def test_replay_single_server_backlog_by_hand():
    inst = _single_server_instance()
    cost, sojourn = replay_assignments(inst, (0, 0))
    assert cost == 2.0
    # first job runs [1, 2]; second arrives at 1.5, starts at 2, done at 3
    assert sojourn == pytest.approx((1.0 + 1.5) / 2)


def _two_server_instance():
    # server 0 cheap, server 1 dear, both hold the single file;
    # back-to-back arrivals make load spreading worthwhile.
    return TinyInstance(
        cost=CostMatrix.from_rows([[1.0, 5.0]]),
        allocation=CacheAllocation.from_sets([{0}, {0}], n_files=1),
        arrival_times=(1.0, 1.1),
        users=(0, 0),
        files=(0, 0),
        service=ServiceSpec.constant(1.0),
    )


def test_replayed_strategy_sees_a_departure_at_an_arrival_as_gone():
    # The first job leaves server 0 at 2.0, the second arrival's time. As in
    # the engine, it has left: wmc:0.4 sees empty queues and takes the free
    # server 0. Counted as still there, it would take server 1 (cost 10).
    inst = TinyInstance(
        cost=CostMatrix.from_rows([[0.0, 10.0]]),
        allocation=CacheAllocation.from_sets([{0}, {0}], n_files=1),
        arrival_times=(1.0, 2.0),
        users=(0, 0),
        files=(0, 0),
        service=ServiceSpec.constant(1.0),
    )
    assert sequence_objective(inst, (0, 0), 0.5) == 0.5
    assert replay_strategy(inst, "wmc:0.4", 0.5, Random(0)) == 0.5


def test_exhaustive_search_hand_instance_across_weights():
    inst = _two_server_instance()

    seq, val = exhaustive_objective_search(inst, 1.0)
    assert seq == (0, 0)
    assert val == pytest.approx(1.0)

    seq, val = exhaustive_objective_search(inst, 0.0)
    assert seq == (0, 1)  # first of the two sojourn-optimal sequences
    assert val == pytest.approx(1.0)

    seq, val = exhaustive_objective_search(inst, 0.5)
    assert seq == (0, 0)
    assert val == pytest.approx(0.5 * 1.0 + 0.5 * 1.45)

    assert sequence_objective(inst, (0, 0), 0.5) == pytest.approx(1.225)
    assert sequence_objective(inst, (1, 1), 0.5) == pytest.approx(3.225)


def test_pure_cost_optimum_is_per_request_cost_argmin():
    for seed in range(8):
        inst = random_tiny_instance(Random(seed))
        seq, _ = exhaustive_objective_search(inst, 1.0)
        cands = inst.request_candidates()
        costs = inst.cost.entries
        expected = tuple(
            min(cands[j], key=lambda k: costs[inst.users[j]][k])
            for j in range(inst.n_requests)
        )
        assert seq == expected


def test_oracle_never_beaten_by_any_strategy_under_constant_service():
    strategies = ("mincost", "minqueue", "pss:0.5", "wmc:0.5", "mcs:2")
    for seed in range(10):
        inst = random_tiny_instance(Random(seed))
        for weight in (0.0, 0.5, 1.0):
            _, best = exhaustive_objective_search(inst, weight)
            for strat in strategies:
                achieved = replay_strategy(inst, strat, weight, Random(seed + 1))
                assert best <= achieved + 1e-9, (seed, weight, strat)


def test_replayed_switch_extremes_match_pure_strategies():
    inst = random_tiny_instance(Random(3))
    for weight in (0.0, 1.0):
        a = replay_strategy(inst, "pss:0", weight, Random(7))
        b = replay_strategy(inst, "mincost", weight, Random(7))
        assert a == b
        a = replay_strategy(inst, "pss:1", weight, Random(7))
        b = replay_strategy(inst, "minqueue", weight, Random(7))
        assert a == b


def test_instance_validation_rules():
    cost = CostMatrix.from_rows([[1.0]])
    alloc = CacheAllocation.from_sets([{0}], n_files=1)
    svc = ServiceSpec.constant(1.0)
    with pytest.raises(ConfigError):
        TinyInstance(cost, alloc, (), (), (), svc)  # zero requests
    with pytest.raises(ConfigError):
        TinyInstance(cost, alloc, tuple(float(i) for i in range(9)),
                     (0,) * 9, (0,) * 9, svc)  # nine requests
    with pytest.raises(ConfigError):
        TinyInstance(cost, alloc, (1.0, 1.0), (0, 0), (0, 0), svc)  # equal times
    with pytest.raises(ConfigError):
        TinyInstance(cost, alloc, (1.0,), (1,), (0,), svc)  # unknown user
    with pytest.raises(ConfigError):
        TinyInstance(cost, alloc, (1.0,), (0,), (1,), svc)  # unknown file
    with pytest.raises(ConfigError):
        TinyInstance(cost, alloc, (1.0,), (0,), (0,), ServiceSpec.exponential(1.0))  # exp: service


def test_enumeration_bound_is_enforced():
    # 7 requests with 4 candidate servers each is 16384 sequences.
    cost = CostMatrix.from_rows([[1.0, 2.0, 3.0, 4.0]])
    alloc = CacheAllocation.from_sets([{0}, {0}, {0}, {0}], n_files=1)
    with pytest.raises(ConfigError):
        TinyInstance(
            cost, alloc,
            tuple(float(i + 1) for i in range(7)),
            (0,) * 7, (0,) * 7,
            ServiceSpec.constant(1.0),
        )


def test_search_input_validation():
    inst = _two_server_instance()
    with pytest.raises(ValueError):
        exhaustive_objective_search(inst, 1.5)


def test_random_instances_are_well_formed():
    for seed in range(20):
        inst = random_tiny_instance(Random(seed), n_requests=4)
        assert inst.n_requests == 4
        assert inst.service.kind == "const"
        for cands in inst.request_candidates():
            assert cands
