"""The five request-mapping strategies.

Every strategy sees the same inputs: the requesting user, the ordered
candidate servers holding the file, the user's cost row, the current
jobs-in-system vector, and an exclusive random stream. Each returns a
MappingDecision naming the chosen server and how many queue-state
queries the choice needed.

Randomness discipline: every decision consumes exactly one uniform from
the stream for its final pick (argmin ties are broken uniformly; with a
unique argmin the draw is still burned). pss_map reuses its single
branch uniform, rescaled back to [0, 1), as that pick draw. Under a
shared seed this makes pss at switch probability 0 replay mincost
draw-for-draw and at 1 replay minqueue, and mcs with probe count >=
len(candidates) replay minqueue. Only mcs can consume extra draws, and
only when a random subset of cost-tied servers must be probed.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .model import StrategySpec


class MappingDecision(NamedTuple):
    server: int
    queries_used: int


def _pick(options: Sequence[int], u: float) -> int:
    # Uniform member of options from one uniform draw.
    j = int(u * len(options))
    return options[j] if j < len(options) else options[-1]


def _argmin_set(candidates: Sequence[int], values) -> list[int]:
    # All candidates attaining the minimum, in candidate order.
    best = None
    ties: list[int] = []
    for k in candidates:
        v = values[k]
        if best is None or v < best:
            best = v
            ties = [k]
        elif v == best:
            ties.append(k)
    return ties


def min_cost_prep(candidates: Sequence[int], costs) -> tuple[int, ...]:
    """Cost-argmin set, precomputable because costs are static within a run."""
    return tuple(_argmin_set(candidates, costs))


def min_cost_map(
    user: int,
    candidates: Sequence[int],
    costs,
    rng,
    *,
    prep: tuple[int, ...] | None = None,
    u: float | None = None,
) -> MappingDecision:
    """Cheapest candidate; never inspects queues (0 queries)."""
    ties = prep if prep is not None else _argmin_set(candidates, costs)
    if u is None:
        u = rng.random()
    return MappingDecision(_pick(ties, u), 0)


def min_queue_map(
    user: int,
    candidates: Sequence[int],
    queues,
    rng,
    *,
    u: float | None = None,
) -> MappingDecision:
    """Least-loaded candidate; polls every candidate (len(candidates) queries)."""
    ties = _argmin_set(candidates, queues)
    if u is None:
        u = rng.random()
    return MappingDecision(_pick(ties, u), len(candidates))


def pss_map(
    user: int,
    candidates: Sequence[int],
    costs,
    queues,
    switch_prob: float,
    rng,
    *,
    cost_prep: tuple[int, ...] | None = None,
) -> MappingDecision:
    """Probabilistic switch: with probability switch_prob go least-loaded,
    otherwise cheapest. One uniform decides the branch and, rescaled to
    its conditional distribution, breaks the delegated tie."""
    x = rng.random()
    if switch_prob > 0.0 and x <= switch_prob:
        return min_queue_map(user, candidates, queues, rng, u=x / switch_prob)
    u = x if switch_prob >= 1.0 else (x - switch_prob) / (1.0 - switch_prob)
    return min_cost_map(user, candidates, costs, rng, prep=cost_prep, u=u)


def wmc_prep(
    candidates: Sequence[int], costs, cost_weight: float
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Static part of the wmc score, as (shares, order).

    shares holds each candidate's weighted cost share, in candidate order;
    all 0.0 when the candidate costs sum to zero. order holds the candidate
    positions sorted by share (a stable sort), the order wmc_map scans in.
    """
    cost_total = 0.0
    for k in candidates:
        cost_total += costs[k]
    if cost_total > 0.0:
        shares = tuple(cost_weight * (costs[k] / cost_total) for k in candidates)
    else:
        shares = (0.0,) * len(candidates)
    return shares, tuple(sorted(range(len(shares)), key=shares.__getitem__))


def wmc_map(
    user: int,
    candidates: Sequence[int],
    costs,
    queues,
    cost_weight: float,
    rng,
    *,
    prep: tuple[tuple[float, ...], tuple[int, ...]] | None = None,
) -> MappingDecision:
    """Weighted mixed cost: score each candidate by a convex combination of
    its cost share and queue share over the candidate set, take the argmin.
    A zero normalizer drops that term for every candidate. Polls every
    candidate (len(candidates) queries).

    Candidates are scored in ascending share order. A score is its share
    plus a queue term >= 0, and rounding cannot take a float sum below
    either addend, so every score is >= its share: once a share exceeds
    the best score so far, neither that candidate nor any later one can
    reach it, and the scan stops with the same argmin set a full scan
    finds. Ties go back into candidate order before the pick.
    """
    if prep is None:
        prep = wmc_prep(candidates, costs, cost_weight)
    shares, order = prep
    queue_total = 0
    for k in candidates:
        queue_total += queues[k]
    load_weight = 1.0 - cost_weight

    best = math.inf
    ties: list[int] = []
    for pos in order:
        score = shares[pos]
        if score > best:
            break
        if queue_total > 0:
            score += load_weight * (queues[candidates[pos]] / queue_total)
        if score < best:
            best = score
            ties = [pos]
        elif score == best:
            ties.append(pos)
    if len(ties) > 1:
        ties.sort()
    return MappingDecision(candidates[_pick(ties, rng.random())], len(candidates))


def mcs_prep(candidates: Sequence[int], costs, n_choices: int):
    """Static part of the mcs probe-set choice.

    Returns (base, boundary, need): base servers are always probed; when
    need > 0, `need` more are drawn uniformly from the cost-tied boundary.
    """
    n = len(candidates)
    probes = n_choices if n_choices < n else n
    if probes == n:
        return tuple(candidates), (), 0
    ordered = sorted(costs[k] for k in candidates)
    threshold = ordered[probes - 1]
    base = []
    boundary = []
    for k in candidates:
        c = costs[k]
        if c < threshold:
            base.append(k)
        elif c == threshold:
            boundary.append(k)
    need = probes - len(base)
    if need == len(boundary):
        return tuple(sorted(base + boundary)), (), 0
    return tuple(base), tuple(boundary), need


def mcs_map(
    user: int,
    candidates: Sequence[int],
    costs,
    queues,
    n_choices: int,
    rng,
    *,
    prep=None,
) -> MappingDecision:
    """Minimum cost subset: probe the min(n_choices, len(candidates))
    cheapest candidates (cost ties at the cut drawn uniformly), then take
    the least loaded of the probed set. Queries equal the probe count."""
    if prep is None:
        prep = mcs_prep(candidates, costs, n_choices)
    base, boundary, need = prep
    if need:
        probed = sorted(base + tuple(rng.sample(boundary, need)))
    else:
        probed = base
    ties = _argmin_set(probed, queues)
    return MappingDecision(_pick(ties, rng.random()), len(probed))


def bind_strategy(spec: StrategySpec, cost_rows, candidates_by_file, n_users: int, n_files: int, rng):
    """Compile a spec into a per-request callable fn(user, file, queues).

    Static per-(user, file) work (cost argmins, wmc cost shares and scan
    orders, mcs probe sets) is memoized; the memoized path makes decisions
    draw-for-draw identical to calling the plain strategy functions. That
    work depends on the file only through its candidate tuple, so files
    with equal tuples share one memo slot per user (at full replication,
    all do).
    """
    kind = spec.kind

    if kind == "minqueue":
        def decide(user: int, file_index: int, queues) -> MappingDecision:
            return min_queue_map(user, candidates_by_file[file_index], queues, rng)
        return decide

    slot_of: dict[tuple[int, ...], int] = {}
    slot = [slot_of.setdefault(tuple(c), len(slot_of)) for c in candidates_by_file]
    memo: list[list] = [[None] * n_files for _ in range(n_users)]

    if kind == "wmc":
        weight = spec.param

        def decide(user: int, file_index: int, queues) -> MappingDecision:
            prep = memo[user][slot[file_index]]
            if prep is None:
                prep = memo[user][slot[file_index]] = wmc_prep(
                    candidates_by_file[file_index], cost_rows[user], weight)
            return wmc_map(user, candidates_by_file[file_index], cost_rows[user],
                           queues, weight, rng, prep=prep)
        return decide

    if kind == "mincost":
        def decide(user: int, file_index: int, queues) -> MappingDecision:
            prep = memo[user][slot[file_index]]
            if prep is None:
                prep = memo[user][slot[file_index]] = min_cost_prep(
                    candidates_by_file[file_index], cost_rows[user])
            return min_cost_map(user, candidates_by_file[file_index],
                                cost_rows[user], rng, prep=prep)
        return decide

    if kind == "pss":
        switch_prob = spec.param

        def decide(user: int, file_index: int, queues) -> MappingDecision:
            prep = memo[user][slot[file_index]]
            if prep is None:
                prep = memo[user][slot[file_index]] = min_cost_prep(
                    candidates_by_file[file_index], cost_rows[user])
            return pss_map(user, candidates_by_file[file_index], cost_rows[user],
                           queues, switch_prob, rng, cost_prep=prep)
        return decide

    if kind == "mcs":
        n_choices = spec.param

        def decide(user: int, file_index: int, queues) -> MappingDecision:
            prep = memo[user][slot[file_index]]
            if prep is None:
                prep = memo[user][slot[file_index]] = mcs_prep(
                    candidates_by_file[file_index], cost_rows[user], n_choices)
            return mcs_map(user, candidates_by_file[file_index], cost_rows[user],
                           queues, n_choices, rng, prep=prep)
        return decide

    raise ValueError(f"unknown strategy kind {kind!r}")
