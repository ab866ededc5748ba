"""The five request-mapping strategies.

bind_strategy compiles a spec into one closure per run, fn(user, file,
queues), that makes each decision in a single call: it looks up the static
part of the decision, chooses, breaks the tie and returns a
MappingDecision naming the chosen server and how many queue-state queries
the choice needed. The static part comes from the rule's prep(candidates,
costs, param), built from the requesting user's cost row (fixed within a
run) on the first request of each (user, memo slot) and kept. Decisions
are prebuilt, one row of MappingDecision(k, count) over the servers k per
query count the binding returns, so a returned decision may be the same
object as an earlier one.

Three rules decide the five families, one closure each: pss's switch
rule, wmc's weighted rule and mcs's probe rule. The paper's closed-form
extremes are the switch rule's ends, and wmc's endpoints are their exact
twins: _rule binds mincost and wmc:1 to switch 0, minqueue and wmc:0 to
switch 1. At cost weight 0 every share is 0.0, so a score is q/Q, least
where the queue q is (q/Q is strictly increasing in integer q below
2**52). At cost weight 1 every queue term is 0.0 * (q/Q) = 0.0, so a
score is its share: wmc:1's cheapest branch picks from the min-share set
of each (user, memo slot), and still reports len(candidates) queries.

Randomness discipline: every decision consumes exactly one uniform from
the stream for its final pick (argmin ties are broken uniformly; with a
unique argmin the draw is still burned). The switch rule reuses its
single branch uniform, rescaled back to [0, 1), as that pick draw; at
switch 0, (x - 0.0) / (1.0 - 0.0) is x exactly. mcs with probe count >=
len(candidates) replays minqueue. Only mcs can consume extra draws, and
only when a random subset of cost-tied servers must be probed. It draws
those probes from the stream's getrandbits exactly as
Random.sample(boundary, need) would (draws.sample), so the picks and
every later draw are those of sample.

Queue index: the switch rule's queue branch and the weighted rule read
queue state across the whole candidate set. When a candidate tuple
holds every server, they read a QueueIndex instead of scanning it: the
sorted list of servers at the lowest queue length, or the jobs total.
queue_index decides when one is kept; the engine updates it at every
event, and the bound closure reads it on that tuple only. Every other
tuple, and every binding made without an index, scans the queue vector.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import repeat
from typing import NamedTuple, Sequence

from .draws import sample as _sample_ties, sample_plan
from .model import STRATEGY_FAMILIES, StrategySpec


class MappingDecision(NamedTuple):
    server: int
    queries_used: int


class QueueIndex:
    """Jobs in system over all servers, in the parts a family reads.

    With buckets, maps each queue length to the ascending list of servers
    holding that many jobs (a defaultdict(list); an emptied list is
    deleted), and lowest is the smallest such length. Without, total is the
    sum of the queue vector. The constructor builds it from scratch;
    run_simulation keeps it current in place at every arrival and
    departure, moving a server between lists with bisect and insort.
    """

    __slots__ = ("total", "buckets", "lowest")

    def __init__(self, queues: Sequence[int], *, buckets: bool) -> None:
        self.total = None
        self.buckets = None
        self.lowest = None
        if buckets:
            self.buckets = defaultdict(list)
            for k, q in enumerate(queues):
                self.buckets[q].append(k)
            self.lowest = min(self.buckets)
        else:
            self.total = sum(queues)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QueueIndex):
            return NotImplemented
        return (self.total, self.buckets, self.lowest) == (other.total, other.buckets, other.lowest)

    def __repr__(self) -> str:
        return f"QueueIndex(total={self.total}, buckets={self.buckets}, lowest={self.lowest})"


def _rule(spec: StrategySpec) -> tuple[str, float, bool]:
    # (rule, param, by_share): ("switch", switch probability, by_share),
    # ("wmc", cost weight strictly inside (0, 1), False) or ("mcs", probe
    # count, False). With by_share the switch rule's cheapest branch picks
    # from the min-share set at cost weight 1, not the cost-argmin set.
    kind, param = spec.kind, spec.param
    if kind == "mincost":
        return "switch", 0.0, False
    if kind == "minqueue" or (kind == "wmc" and param == 0.0):
        return "switch", 1.0, False
    if kind == "wmc" and param == 1.0:
        return "switch", 0.0, True
    if kind == "pss":
        return "switch", param, False
    return kind, param, False


def queue_index(spec: StrategySpec, table, queues: Sequence[int]):
    """The QueueIndex over queues that spec reads, or None.

    One is built only when the rule reads queue state across a whole
    candidate set and some candidate tuple of table, a CandidateTable,
    holds every server. The switch rule above switch probability 0 keeps
    the buckets; the weighted rule keeps only the total. The switch rule
    at 0 and the probe rule read no whole candidate set's queues and keep
    none.
    """
    rule, param, _ = _rule(spec)
    if rule == "switch" and param > 0.0:
        buckets = True
    elif rule == "wmc":
        buckets = False
    else:
        return None
    if table.full < 0:
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


def _shares(candidates: Sequence[int], costs, cost_weight: float) -> tuple[float, ...]:
    # Each candidate's weighted cost share, in candidate order; all 0.0 when
    # the candidate costs sum to zero. The total is a sequential float sum:
    # sum() compensates its rounding on Python 3.12 and later.
    cost_total = 0.0
    for k in candidates:
        cost_total += costs[k]
    if cost_total > 0.0:
        return tuple([cost_weight * (costs[k] / cost_total) for k in candidates])
    return (0.0,) * len(candidates)


def wmc_prep(
    candidates: Sequence[int], costs, cost_weight: float
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Static part of the wmc score, as (shares, order).

    shares holds each candidate's weighted cost share, in candidate order;
    all 0.0 when the candidate costs sum to zero. order holds the candidate
    positions sorted by share (a stable sort), the order wmc's closure scans in.
    """
    shares = _shares(candidates, costs, cost_weight)
    return shares, tuple(sorted(range(len(shares)), key=shares.__getitem__))


def mcs_prep(candidates: Sequence[int], costs, n_choices: int):
    """Static part of the mcs probe-set choice.

    Returns (base, boundary, draws, pooled): base servers, in ascending
    order, are always probed; when draws is non-empty, len(draws) more are
    drawn uniformly from the cost-tied boundary, in candidate order, by
    the draws module's sample; (draws, pooled) is its sample_plan.
    """
    n = len(candidates)
    probes = n_choices if n_choices < n else n
    if probes == n:
        return tuple(candidates), (), (), False
    # One stable sort by cost: the servers below the cut form a prefix, and
    # the run of cost ties at the cut keeps candidate order.
    cost_of = costs.__getitem__
    ordered = sorted(candidates, key=cost_of)
    threshold = cost_of(ordered[probes - 1])
    first = bisect_left(ordered, threshold, 0, probes - 1, key=cost_of)
    end = bisect_right(ordered, threshold, probes, n, key=cost_of)
    if end == probes:
        return tuple(sorted(ordered[:probes])), (), (), False
    draws, pooled = sample_plan(end - first, probes - first)
    return tuple(sorted(ordered[:first])), tuple(ordered[first:end]), draws, pooled


def bind_strategy(spec: StrategySpec, cost_rows, table, n_users: int, n_files: int,
                  rng, *, queue_index: QueueIndex | None = None):
    """Compile a spec into its rule's per-request closure fn(user, file, queues).

    The closure is one of three: switch (mincost, minqueue, pss and wmc's
    endpoints), weighted (wmc strictly inside cost weights 0 and 1) or
    probe (mcs); see the module docstring. cost_rows[user] holds that
    user's cost of every server. The rule's prep runs on the first request
    of each (user, memo slot) and its result is kept for the rest of the
    run. prep depends on the file only through its candidate tuple, so
    files with equal tuples share one memo slot per user (at full
    replication, all do): the slots are those of table, the
    CandidateTable that candidate_table keeps per allocation. The switch
    rule at 1 never reads its memo and keeps none.

    queue_index, from queue_index() and kept current by the caller, is
    read on the slot whose tuple holds every server; every other slot
    scans the queues it is called with.
    """
    if spec.kind not in STRATEGY_FAMILIES:
        raise ValueError(f"unknown strategy kind {spec.kind!r}")
    rule, param, by_share = _rule(spec)
    n_servers = len(cost_rows[0])
    slot = table.slot
    memo = (None if rule == "switch" and param == 1.0
            else [[None] * table.n_slots for _ in range(n_users)])
    full = -1 if queue_index is None else table.full
    candidates_by_file = list(table)  # an exact list indexes faster than a subclass
    random = rng.random
    rows: dict[int, list[MappingDecision]] = {}  # query count -> each server's decision
    file_rows: list = [None] * n_files  # the row of each file's queue-reading choice

    def decisions(count: int) -> list[MappingDecision]:
        # Built by tuple.__new__, in C, not by the NamedTuple's Python __new__.
        if count not in rows:
            rows[count] = list(map(tuple.__new__, repeat(MappingDecision, n_servers),
                                   zip(range(n_servers), repeat(count))))
        return rows[count]

    def file_row(file_index: int, count: int) -> list[MappingDecision]:
        row = file_rows[file_index] = decisions(count)
        return row

    def cost_ties(user: int, file_index: int) -> tuple[MappingDecision, ...]:
        # Switch memo entry: the cost-argmin set, as decisions.
        zero = decisions(0)
        ties = _argmin_set(candidates_by_file[file_index], cost_rows[user])
        return tuple([zero[k] for k in ties])

    def share_ties(user: int, file_index: int) -> tuple[MappingDecision, ...]:
        # Switch memo entry by share: the min-share set at cost weight 1, in
        # candidate order, as decisions that count a query per candidate.
        candidates = candidates_by_file[file_index]
        shares = _shares(candidates, cost_rows[user], 1.0)
        best = min(shares)
        row = decisions(len(candidates))
        return tuple([row[k] for k, share in zip(candidates, shares) if share == best])

    if rule == "switch":
        switch = param
        fill = share_ties if by_share else cost_ties
        buckets = None if queue_index is None else queue_index.buckets

        def decide(user: int, file_index: int, queues) -> MappingDecision:
            # With probability switch go least-loaded, polling every
            # candidate, otherwise cheapest. One uniform picks the branch
            # and, rescaled to its conditional distribution, breaks its tie.
            # The index's lowest bucket lists the least loaded in ascending
            # order, as a scan would.
            x = random()
            if switch > 0.0 and x <= switch:
                candidates = candidates_by_file[file_index]
                if slot[file_index] == full:
                    ties = buckets[queue_index.lowest]
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
                ties = memo[user][s] = fill(user, file_index)
            # switch < 1 here: at 1, x < 1 always takes the queue branch.
            j = int((x - switch) / (1.0 - switch) * len(ties))
            return ties[j] if j < len(ties) else ties[-1]

    elif rule == "wmc":
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
