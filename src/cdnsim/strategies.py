"""The five request-mapping strategies.

bind_strategy compiles a spec into one closure per run, fn(user, file,
queues), that makes each decision in a single call: it looks up the static
part of the decision, chooses, breaks the tie and returns a
MappingDecision naming the chosen server and how many queue-state queries
the choice needed. The static part comes from the family's prep(candidates,
costs, param), built from the requesting user's cost row (fixed within a
run) on the first request of each (user, memo slot) and kept. Decisions
are prebuilt, one row of MappingDecision(k, count) over the servers k per
query count the binding returns, so a returned decision may be the same
object as an earlier one.

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

Queue index: minqueue, the queue branch of pss and wmc read queue state
across the whole candidate set. When a candidate tuple holds every
server, they read a QueueIndex instead of scanning it: the servers of
the lowest queue length, or the jobs total. queue_index decides when
one is kept; the engine updates it at every event, and the bound closure
reads it on that tuple only. Every other tuple, and every binding made
without an index, scans the queue vector.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import NamedTuple, Sequence

from .model import STRATEGY_FAMILIES, StrategySpec


class MappingDecision(NamedTuple):
    server: int
    queries_used: int


class QueueIndex:
    """Jobs in system over all servers, in the parts a family reads.

    With buckets, maps each queue length to the set of servers holding
    that many jobs (a defaultdict(set); an emptied set is deleted), and
    lowest is the smallest such length. Without, total is the sum of the
    queue vector. The constructor builds it from scratch; run_simulation
    keeps it current in place at every arrival and departure.
    """

    __slots__ = ("n_servers", "total", "buckets", "lowest")

    def __init__(self, queues: Sequence[int], *, buckets: bool) -> None:
        self.n_servers = len(queues)
        self.total = None
        self.buckets = None
        self.lowest = None
        if buckets:
            self.buckets = defaultdict(set)
            for k, q in enumerate(queues):
                self.buckets[q].add(k)
            self.lowest = min(self.buckets)
        else:
            self.total = sum(queues)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QueueIndex):
            return NotImplemented
        return (self.n_servers, self.total, self.buckets, self.lowest) == (
            other.n_servers, other.total, other.buckets, other.lowest)

    def __repr__(self) -> str:
        return (f"QueueIndex(n_servers={self.n_servers}, total={self.total}, "
                f"buckets={self.buckets}, lowest={self.lowest})")


def queue_index(spec: StrategySpec, candidates_by_file, queues: Sequence[int]):
    """The QueueIndex over queues that spec reads, or None.

    One is built only when the family reads queue state across a whole
    candidate set (minqueue, pss with a switch probability above 0, wmc)
    and some candidate tuple holds every server. wmc keeps only the
    total; the others only the buckets.
    """
    if spec.kind == "wmc":
        buckets = False
    elif spec.kind == "minqueue" or (spec.kind == "pss" and spec.param > 0.0):
        buckets = True
    else:
        return None
    if tuple(range(len(queues))) not in candidates_by_file:
        return None
    return QueueIndex(queues, buckets=buckets)


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


def wmc_prep(
    candidates: Sequence[int], costs, cost_weight: float
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Static part of the wmc score, as (shares, order).

    shares holds each candidate's weighted cost share, in candidate order;
    all 0.0 when the candidate costs sum to zero. order holds the candidate
    positions sorted by share (a stable sort), the order wmc's closure scans in.
    """
    cost_total = 0.0
    for k in candidates:
        cost_total += costs[k]
    if cost_total > 0.0:
        shares = tuple(cost_weight * (costs[k] / cost_total) for k in candidates)
    else:
        shares = (0.0,) * len(candidates)
    return shares, tuple(sorted(range(len(shares)), key=shares.__getitem__))


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


def bind_strategy(spec: StrategySpec, cost_rows, candidates_by_file, n_users: int, n_files: int,
                  rng, *, queue_index: QueueIndex | None = None):
    """Compile a spec into its family's per-request closure fn(user, file, queues).

    cost_rows[user] holds that user's cost of every server. The family's
    prep runs on the first request of each (user, memo slot) and its
    result is kept for the rest of the run. prep depends on the file only
    through its candidate tuple, so files with equal tuples share one memo
    slot per user (at full replication, all do). minqueue keeps no memo.

    queue_index, from queue_index() and kept current by the caller, is
    read on the slot whose tuple holds every server; every other slot
    scans the queues it is called with.
    """
    kind = spec.kind
    if kind not in STRATEGY_FAMILIES:
        raise ValueError(f"unknown strategy kind {kind!r}")
    param = spec.param
    slot_of: dict[tuple[int, ...], int] = {}
    slot = [slot_of.setdefault(tuple(c), len(slot_of)) for c in candidates_by_file]
    memo = None if kind == "minqueue" else [[None] * n_files for _ in range(n_users)]
    full = -1 if queue_index is None else slot_of.get(tuple(range(queue_index.n_servers)), -1)
    random = rng.random
    n_servers = len(cost_rows[0])
    rows: dict[int, list[MappingDecision]] = {}  # query count -> each server's decision
    file_rows: list = [None] * n_files  # the row of each file's queue-reading choice

    def decisions(count: int) -> list[MappingDecision]:
        if count not in rows:
            rows[count] = [MappingDecision(k, count) for k in range(n_servers)]
        return rows[count]

    def file_row(file_index: int, count: int) -> list[MappingDecision]:
        row = file_rows[file_index] = decisions(count)
        return row

    def cost_ties(user: int, file_index: int) -> tuple[MappingDecision, ...]:
        # Memo entry of mincost and pss: the cost-argmin set, as decisions.
        zero = decisions(0)
        ties = _argmin_set(candidates_by_file[file_index], cost_rows[user])
        return tuple([zero[k] for k in ties])

    if kind == "mincost":
        def decide(user: int, file_index: int, queues) -> MappingDecision:
            # Cheapest candidate; never inspects queues (0 queries).
            s = slot[file_index]
            ties = memo[user][s]
            if ties is None:
                ties = memo[user][s] = cost_ties(user, file_index)
            j = int(random() * len(ties))
            return ties[j] if j < len(ties) else ties[-1]

    elif kind in ("minqueue", "pss"):
        # minqueue is pss's queue branch on every request: pss at switch
        # probability 1 replays it draw for draw, and never reads the memo.
        switch = 1.0 if kind == "minqueue" else param

        def decide(user: int, file_index: int, queues) -> MappingDecision:
            # With probability switch go least-loaded, polling every
            # candidate, otherwise cheapest. One uniform picks the branch
            # and, rescaled to its conditional distribution, breaks its tie.
            # The index gives the least loaded in ascending order, as a scan.
            x = random()
            if switch > 0.0 and x <= switch:
                candidates = candidates_by_file[file_index]
                if slot[file_index] == full:
                    ties = sorted(queue_index.buckets[queue_index.lowest])
                else:
                    best = math.inf
                    for k in candidates:
                        q = queues[k]
                        if q < best:
                            best, ties = q, [k]
                        elif q == best:
                            ties.append(k)
                row = file_rows[file_index] or file_row(file_index, len(candidates))
                j = int(x / switch * len(ties))
                return row[ties[j] if j < len(ties) else ties[-1]]
            s = slot[file_index]
            ties = memo[user][s]
            if ties is None:
                ties = memo[user][s] = cost_ties(user, file_index)
            # switch < 1 here: at 1, x < 1 always takes the queue branch.
            j = int((x - switch) / (1.0 - switch) * len(ties))
            return ties[j] if j < len(ties) else ties[-1]

    elif kind == "wmc":
        load_weight = 1.0 - param

        def decide(user: int, file_index: int, queues) -> MappingDecision:
            # Weighted mixed cost: the argmin of a convex combination of
            # each candidate's cost share and queue share over the candidate
            # set; a zero normalizer drops its term. Polls every candidate.
            # Scores run in ascending share order. A score is its share plus
            # a queue term >= 0, and rounding cannot take a float sum below
            # either addend: once a share exceeds the best score so far, no
            # later candidate can reach it, and the scan stops with the
            # argmin set a full scan finds. Ties go back into candidate order.
            candidates = candidates_by_file[file_index]
            s = slot[file_index]
            static = memo[user][s]
            if static is None:
                static = memo[user][s] = wmc_prep(candidates, cost_rows[user], param)
            shares, order = static
            if s == full:
                queue_total = queue_index.total
            else:
                queue_total = 0
                for k in candidates:
                    queue_total += queues[k]
            best = math.inf
            ties = []
            for pos in order:
                score = shares[pos]
                if score > best:
                    break
                if queue_total > 0:
                    score += load_weight * (queues[candidates[pos]] / queue_total)
                if score < best:
                    best, ties = score, [pos]
                elif score == best:
                    ties.append(pos)
            if len(ties) > 1:
                ties.sort()
            row = file_rows[file_index] or file_row(file_index, len(candidates))
            j = int(random() * len(ties))
            return row[candidates[ties[j] if j < len(ties) else ties[-1]]]

    else:
        getrandbits = rng.getrandbits

        def decide(user: int, file_index: int, queues) -> MappingDecision:
            # Minimum cost subset: probe the min(param, len(candidates))
            # cheapest candidates (cost ties at the cut drawn uniformly) and
            # take the least loaded of them; queries equal the probe count.
            s = slot[file_index]
            static = memo[user][s]
            if static is None:
                static = memo[user][s] = mcs_prep(candidates_by_file[file_index],
                                                  cost_rows[user], param)
            base, boundary, draws, pooled = static
            if draws:
                probed = _sample_ties(boundary, draws, pooled, getrandbits)
                probed += base
                probed.sort()
            else:
                probed = base
            best = math.inf
            for k in probed:
                q = queues[k]
                if q < best:
                    best, ties = q, [k]
                elif q == best:
                    ties.append(k)
            row = file_rows[file_index] or file_row(file_index, len(probed))
            j = int(random() * len(ties))
            return row[ties[j] if j < len(ties) else ties[-1]]

    return decide
