"""Output checks of the benchmark's workloads.

Every check returns a list of problems, empty when the output passes.
Targets are worked out here, apart from the program: the supermarket
fixed point is summed from its series, query counts follow each
strategy's documented probe rule, and trace lines are read against the
dumped placement. No check compares against stored numbers.
"""

from __future__ import annotations

import csv
import io

# Little's law on a finite run: the counted window ends at the last
# counted departure, so it includes the drain after the final arrival and
# the measured ratio sits slightly below 1 (0.98-1.00 on the runs here).
LITTLE_TOL = 0.05
# Acceptance criterion 2's tolerance on the supermarket occupancy for d=2.
SUPERMARKET_TOL = 0.10
# Relative tolerance on a sweep row's mean candidate count (acceptance
# criterion 3 uses the same 5 %).
MEAN_CANDIDATES_TOL = 0.05
# Absolute slack when comparing recomputed wmc scores with the minimum:
# the program sums the same terms in another order.
SCORE_TOL = 1e-9


def supermarket_mean_jobs(load: float, choices: int) -> float:
    """Mean jobs per server at the fixed point of the supermarket model
    (each arrival joins the shortest of `choices` random queues, unit-rate
    exponential service): the sum over i >= 1 of
    load ** ((choices**i - 1) / (choices - 1)). One choice is M/M/1."""
    if choices == 1:
        return load / (1.0 - load)
    total = 0.0
    i = 1
    while True:
        term = load ** ((choices**i - 1) / (choices - 1))
        if term < 1e-15:
            return total
        total += term
        i += 1


def documented_probes(family: str, param, n_candidates: int) -> int | None:
    """Queue probes a pss, wmc or mcs decision spends under the README's
    strategy table; None where the count is random (pss strictly between 0
    and 1)."""
    if family == "wmc" or (family == "pss" and param == 1):
        return n_candidates
    if family == "mcs":
        return min(int(param), n_candidates)
    return 0 if family == "pss" and param == 0 else None


def little(result, total_rate: float, n_servers: int) -> list[str]:
    """Jobs in system equal arrival rate times mean sojourn."""
    jobs = result.avg_jobs * n_servers
    flow = total_rate * result.avg_wait
    ratio = jobs / flow if flow > 0 else float("inf")
    if abs(ratio - 1.0) <= LITTLE_TOL:
        return []
    return [f"Little's law: avg_jobs*L {jobs:.4f} vs rate*avg_wait {flow:.4f} "
            f"(ratio {ratio:.4f}, tolerance {LITTLE_TOL})"]


def steady_run(result, *, queries: float, total_rate: float, n_servers: int,
               cost: float | None = None) -> list[str]:
    """A long run on a stable system: exact query count, no overload flag,
    Little's law, and optionally an exact mean cost."""
    problems = []
    if result.avg_queries != queries:
        problems.append(f"avg_queries {result.avg_queries!r}, expected {queries!r}")
    if cost is not None and result.avg_cost != cost:
        problems.append(f"avg_cost {result.avg_cost!r}, expected {cost!r}")
    if result.overloaded:
        problems.append(f"flagged overloaded (wait_growth {result.wait_growth:.3f})")
    return problems + little(result, total_rate, n_servers)


def supermarket(result, target: float) -> list[str]:
    """avg_jobs within SUPERMARKET_TOL of the fixed-point target."""
    rel = abs(result.avg_jobs - target) / target
    if rel < SUPERMARKET_TOL:
        return []
    return [f"avg_jobs {result.avg_jobs:.4f} vs supermarket {target:.4f} "
            f"(rel err {rel:.2%}, tolerance {SUPERMARKET_TOL:.0%})"]


def wmc_scores(cands, costs, queues, alpha: float) -> list[float]:
    """The README's wmc score of every candidate; a zero normalizer drops
    its term."""
    cost_total = sum(costs[k] for k in cands)
    queue_total = sum(queues[k] for k in cands)
    scores = []
    for k in cands:
        s = 0.0
        if cost_total > 0:
            s += alpha * costs[k] / cost_total
        if queue_total > 0:
            s += (1.0 - alpha) * queues[k] / queue_total
        scores.append(s)
    return scores


def decision_ok(family: str, param, cands, costs, queues, server: int) -> bool:
    """The chosen server is a candidate and attains its strategy's minimum:
    the least queue for minqueue, the least score for wmc."""
    if server not in cands:
        return False
    if family == "minqueue":
        return queues[server] == min(queues[k] for k in cands)
    if family == "wmc":
        scores = wmc_scores(cands, costs, queues, param)
        return scores[cands.index(server)] <= min(scores) + SCORE_TOL
    return True


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def sweep_csv(text: str, *, family: str, params, cache_size: int, n_runs: int,
              events: int, n_servers: int, n_files: int) -> list[str]:
    """One `simulate` sweep over one cache size: one row per point in the
    documented order (parameters ascending), the context columns, and the
    query counts the method implies. With every file on every server each
    request has n_servers candidates; under uniform popularity the mean
    candidate count is exactly n_servers * cache_size / n_files."""
    rows = read_csv(text)
    if len(rows) != len(params):
        return [f"{len(rows)} rows for {len(params)} points"]
    problems = []
    for want, row in zip(sorted(params, key=lambda p: -1 if p is None else p), rows):
        where = f"row {family}:{row.get('param')} M={row.get('M')}"
        got_param = None if row["param"] == "" else float(row["param"])
        if got_param != want:
            problems.append(f"{where}: param {row['param']!r} out of order, expected {want}")
            continue
        if (row["strategy"], row["M"], row["n_runs"], row["events"]) != (
                family, str(cache_size), str(n_runs), str(events)):
            problems.append(f"{where}: context columns {row}")
        queries = float(row["avg_queries"])
        if cache_size == n_files:
            expected = documented_probes(family, want, n_servers)
            if expected is not None and queries != expected:
                problems.append(f"{where}: avg_queries {queries} expected {expected}")
        elif family == "wmc":
            expected = n_servers * cache_size / n_files
            if abs(queries - expected) > MEAN_CANDIDATES_TOL * expected:
                problems.append(f"{where}: avg_queries {queries} vs L*M/N {expected:.4f}")
    return problems


def parse_placement(text: str) -> list[set[int]]:
    """`server: file,...` lines, servers in order, into one set per server."""
    holdings = []
    for k, line in enumerate(text.splitlines()):
        head, _, files = line.partition(":")
        if int(head) != k:
            raise ValueError(f"placement line {k} names server {head}")
        holdings.append({int(f) for f in files.split(",") if f.strip()})
    return holdings


def traced_point(trace_text: str, placement_text: str, *, family: str, param,
                 events: int, warmup: int, row_avg_queries: str) -> list[str]:
    """A --trace/--dump-placement point: one line per arrival, every line's
    server holds its file, every line's queries field follows the probe
    rule for that file's candidate count, and the counted lines' mean of
    queries is the row's avg_queries."""
    try:
        holdings = parse_placement(placement_text)
        arrivals = []
        for line in trace_text.splitlines():
            _, _, f, k, _, q = line.split(",")
            arrivals.append((int(f), int(k), int(q)))
    except ValueError as err:
        return [f"unreadable trace or placement: {err}"]
    n_candidates: dict[int, int] = {}
    for files in holdings:
        for f in files:
            n_candidates[f] = n_candidates.get(f, 0) + 1
    problems = []
    if len(arrivals) != events:
        problems.append(f"{len(arrivals)} trace lines for {events} arrivals")
    counted_queries = 0
    for i, (f, k, q) in enumerate(arrivals):
        if not 0 <= k < len(holdings) or f not in holdings[k]:
            problems.append(f"trace line {i}: server {k} does not hold file {f}")
        expected = documented_probes(family, param, n_candidates.get(f, 0))
        if expected is not None and q != expected:
            problems.append(f"trace line {i}: queries {q}, expected {expected}")
        if i >= warmup:
            counted_queries += q
        if len(problems) > 5:
            break
    mean = counted_queries / max(1, len(arrivals) - warmup)
    if not problems and format(mean, ".6g") != row_avg_queries:
        problems.append(f"mean trace queries {mean:.6g} vs row avg_queries {row_avg_queries}")
    return problems
