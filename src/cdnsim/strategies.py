"""The five request-mapping strategies.

Each family is a pair of functions. prep(candidates, costs, param) builds
the static part of a decision from the requesting user's cost row, which
is fixed within a run. choose(candidates, static, queues, param, rng)
makes the decision from that static part and the current jobs-in-system
vector, and returns a MappingDecision naming the chosen server and how
many queue-state queries the choice needed. bind_strategy is the only
entry point: it runs prep once per (user, memo slot) and choose on every
request.

Randomness discipline: every decision consumes exactly one uniform from
the stream for its final pick (argmin ties are broken uniformly; with a
unique argmin the draw is still burned). pss reuses its single branch
uniform, rescaled back to [0, 1), as that pick draw. Under a shared seed
this makes pss at switch probability 0 replay mincost draw-for-draw and
at 1 replay minqueue, and mcs with probe count >= len(candidates) replay
minqueue. Only mcs can consume extra draws, and only when a random
subset of cost-tied servers must be probed. It draws those probes from
the stream's getrandbits exactly as Random.sample(boundary, need) would
(_sample_ties), so the picks and every later draw are those of sample.
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


def min_cost_prep(candidates: Sequence[int], costs, param) -> tuple[int, ...]:
    """Cost-argmin set, the static part of mincost and of pss."""
    return tuple(_argmin_set(candidates, costs))


def min_cost_choose(candidates, cost_ties, queues, param, rng) -> MappingDecision:
    """Cheapest candidate; never inspects queues (0 queries)."""
    return MappingDecision(_pick(cost_ties, rng.random()), 0)


def min_queue_prep(candidates: Sequence[int], costs, param) -> tuple[()]:
    """minqueue reads no costs, so it has no static part."""
    return ()


def min_queue_choose(candidates, static, queues, param, rng) -> MappingDecision:
    """Least-loaded candidate; polls every candidate (len(candidates) queries)."""
    ties = _argmin_set(candidates, queues)
    return MappingDecision(_pick(ties, rng.random()), len(candidates))


def pss_choose(candidates, cost_ties, queues, switch_prob, rng) -> MappingDecision:
    """Probabilistic switch: with probability switch_prob go least-loaded,
    otherwise cheapest. One uniform decides the branch and, rescaled to
    its conditional distribution, breaks the tie of the chosen branch."""
    x = rng.random()
    if switch_prob > 0.0 and x <= switch_prob:
        ties = _argmin_set(candidates, queues)
        return MappingDecision(_pick(ties, x / switch_prob), len(candidates))
    u = x if switch_prob >= 1.0 else (x - switch_prob) / (1.0 - switch_prob)
    return MappingDecision(_pick(cost_ties, u), 0)


def wmc_prep(
    candidates: Sequence[int], costs, cost_weight: float
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Static part of the wmc score, as (shares, order).

    shares holds each candidate's weighted cost share, in candidate order;
    all 0.0 when the candidate costs sum to zero. order holds the candidate
    positions sorted by share (a stable sort), the order wmc_choose scans in.
    """
    cost_total = 0.0
    for k in candidates:
        cost_total += costs[k]
    if cost_total > 0.0:
        shares = tuple(cost_weight * (costs[k] / cost_total) for k in candidates)
    else:
        shares = (0.0,) * len(candidates)
    return shares, tuple(sorted(range(len(shares)), key=shares.__getitem__))


def wmc_choose(candidates, prep, queues, cost_weight: float, rng) -> MappingDecision:
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

    Returns (base, boundary, draws, pooled): base servers are always
    probed; when draws is non-empty, len(draws) more are drawn uniformly
    from the cost-tied boundary by _sample_ties. draws holds one
    (bound, bit_length) pair per pick and pooled names the branch of
    Random.sample that a sample of that size from that boundary takes.
    """
    n = len(candidates)
    probes = n_choices if n_choices < n else n
    if probes == n:
        return tuple(candidates), (), (), False
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
        return tuple(sorted(base + boundary)), (), (), False
    # Random.sample's choice between its two branches (CPython 3.11).
    n_ties = len(boundary)
    setsize = 21
    if need > 5:
        setsize += 4 ** math.ceil(math.log(need * 3, 4))
    pooled = n_ties <= setsize
    bounds = range(n_ties, n_ties - need, -1) if pooled else (n_ties,) * need
    draws = tuple((m, m.bit_length()) for m in bounds)
    return tuple(base), tuple(boundary), draws, pooled


def _sample_ties(boundary, draws, pooled: bool, getrandbits) -> list[int]:
    """Random.sample(boundary, len(draws)) from the same getrandbits calls.

    Follows CPython 3.11: each pick is a rejection loop on
    getrandbits(bit_length) below its bound. The pooled branch swaps the
    last unpicked entry into each picked position; the other draws
    positions over the whole boundary and redraws any picked before.
    """
    picks = []
    if pooled:
        pool = list(boundary)
        for m, bits in draws:
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picks.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        # Boundary servers are distinct, so a picked server marks its position.
        for m, bits in draws:
            j = getrandbits(bits)
            while j >= m or boundary[j] in picks:
                j = getrandbits(bits)
            picks.append(boundary[j])
    return picks


def mcs_choose(candidates, prep, queues, n_choices: int, rng) -> MappingDecision:
    """Minimum cost subset: probe the min(n_choices, len(candidates))
    cheapest candidates (cost ties at the cut drawn uniformly), then take
    the least loaded of the probed set. Queries equal the probe count."""
    base, boundary, draws, pooled = prep
    if draws:
        probed = _sample_ties(boundary, draws, pooled, rng.getrandbits)
        probed += base
        probed.sort()
    else:
        probed = base
    ties = _argmin_set(probed, queues)
    return MappingDecision(_pick(ties, rng.random()), len(probed))


# kind -> (prep, choose)
_FAMILIES = {
    "mincost": (min_cost_prep, min_cost_choose),
    "minqueue": (min_queue_prep, min_queue_choose),
    "pss": (min_cost_prep, pss_choose),
    "wmc": (wmc_prep, wmc_choose),
    "mcs": (mcs_prep, mcs_choose),
}


def bind_strategy(spec: StrategySpec, cost_rows, candidates_by_file, n_users: int, n_files: int, rng):
    """Compile a spec into a per-request callable fn(user, file, queues).

    The family's prep runs on the first request of each (user, memo slot)
    and its result is kept for the rest of the run. prep depends on the
    file only through its candidate tuple, so files with equal tuples
    share one memo slot per user (at full replication, all do).
    """
    try:
        prep, choose = _FAMILIES[spec.kind]
    except KeyError:
        raise ValueError(f"unknown strategy kind {spec.kind!r}") from None
    param = spec.param
    slot_of: dict[tuple[int, ...], int] = {}
    slot = [slot_of.setdefault(tuple(c), len(slot_of)) for c in candidates_by_file]
    memo: list[list] = [[None] * n_files for _ in range(n_users)]

    def decide(user: int, file_index: int, queues) -> MappingDecision:
        candidates = candidates_by_file[file_index]
        static = memo[user][slot[file_index]]
        if static is None:
            static = memo[user][slot[file_index]] = prep(candidates, cost_rows[user], param)
        return choose(candidates, static, queues, param, rng)

    return decide
