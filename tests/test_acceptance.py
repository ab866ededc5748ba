"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Each test prints `[criterion N] PASS/FAIL <detail>` straight to the
terminal (bypassing capture) and then asserts, so a plain `pytest -v`
run shows the verdict for every criterion. Tolerances are pinned here
and nowhere else. The trade-off sweeps for criteria 5 and 6 are built
once in a module fixture with common random numbers across strategies
and parameter values. One more test, on synthetic curves, checks that
criterion 6 fails rather than passes when it has nothing to compare.
"""

import io
import math
import time
from bisect import bisect_left
from random import Random
from statistics import mean, stdev

import pytest

from cdnsim.cli import main
from cdnsim.engine import mix_seed, run_simulation, substream
from cdnsim.model import StrategySpec, default_config
from cdnsim.oracle import (
    dominance,
    mm1_mean_sojourn,
    random_tiny_instance,
    supermarket_mean_queue,
)
from cdnsim.topology import manhattan_cost_matrix, random_lattice_layout


def _verdict(capsys, cid, passed, detail):
    with capsys.disabled():
        print(f"\n[criterion {cid}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {cid}: {detail}"


def _ci95(xs):
    return 1.96 * stdev(xs) / len(xs) ** 0.5 if len(xs) > 1 else 0.0


# --------------------------------------------------------------------------
# criterion 1: single queue against the closed form


def test_criterion_1_single_queue_sojourn(capsys):
    t0 = time.monotonic()
    cfg = default_config(
        n_servers=1, n_users=1, n_files=1, cache_size=1,
        arrival_rates=(0.5,), horizon_events=100_000, warmup_events=10_000,
    )
    waits = [
        run_simulation(cfg, "mincost", mix_seed(1000, run_idx)).avg_wait
        for run_idx in range(10)
    ]
    target = mm1_mean_sojourn(0.5, 1.0)
    got = mean(waits)
    rel = abs(got - target) / target
    elapsed = time.monotonic() - t0
    _verdict(
        capsys, 1,
        rel < 0.05 and elapsed < 10.0,
        f"mean sojourn {got:.4f} vs {target:.4f} (rel err {rel:.3%}, "
        f"tol 5%), {elapsed:.1f}s < 10s",
    )


# --------------------------------------------------------------------------
# criterion 2: supermarket occupancy through probe-limited mapping


def test_criterion_2_supermarket_occupancy(capsys):
    t0 = time.monotonic()
    cfg = default_config(
        n_files=70, cache_size=70, lattice_side=1,
        horizon_events=1_000_000, warmup_events=100_000,
    )
    details = []
    ok = True
    for delta, target, tol in (
        (2, supermarket_mean_queue(0.9, 2), 0.10),
        (1, supermarket_mean_queue(0.9, 1), 0.15),
    ):
        vals = [
            run_simulation(cfg, f"mcs:{delta}", mix_seed(2000, delta, run_idx)).avg_jobs
            for run_idx in range(5)
        ]
        got = mean(vals)
        rel = abs(got - target) / target
        ok &= rel < tol
        details.append(f"probes={delta}: jobs/server {got:.4f} vs {target:.4f} "
                       f"(rel err {rel:.3%}, tol {tol:.0%})")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    _verdict(capsys, 2, ok, "; ".join(details) + f"; {elapsed:.0f}s < 120s")


# --------------------------------------------------------------------------
# criterion 3: query counts per strategy family


def test_criterion_3_query_costs(capsys):
    cfg = default_config(horizon_events=100_000)  # L=K=100, N=70, M=8, beta=0
    lm_over_n = 100 * 8 / 70
    details = []
    ok = True

    got = run_simulation(cfg, "wmc:0.5", mix_seed(3000, "wmc")).avg_queries
    rel = abs(got - lm_over_n) / lm_over_n
    ok &= rel < 0.05
    details.append(f"wmc {got:.3f} vs {lm_over_n:.3f} ({rel:.2%})")

    for zeta in (0.25, 0.5, 1.0):
        target = zeta * lm_over_n
        got = run_simulation(cfg, f"pss:{zeta}", mix_seed(3000, "pss", int(zeta * 100))).avg_queries
        rel = abs(got - target) / target
        ok &= rel < 0.05
        details.append(f"pss:{zeta:g} {got:.3f} vs {target:.3f} ({rel:.2%})")

    mismatches = 0
    calls = 0

    def check_exact(t, user, fidx, cands, queues, decision):
        nonlocal mismatches, calls
        calls += 1
        if decision.queries_used != min(check_exact.delta, len(cands)):
            mismatches += 1

    for delta in (1, 2, 8, 100):
        check_exact.delta = delta
        run_simulation(
            cfg, f"mcs:{delta}", mix_seed(3000, "mcs", delta), decision_hook=check_exact
        )
    ok &= mismatches == 0
    details.append(f"mcs exact-per-call over {calls} calls: {mismatches} mismatches")
    _verdict(capsys, 3, ok, "; ".join(details))


# --------------------------------------------------------------------------
# criterion 4: parameter extremes replay the pure policies


def test_criterion_4_extreme_policy_traces(capsys):
    cfg = default_config(horizon_events=20_000)
    run_seed = mix_seed(4000, "trace")

    def traced(strategy):
        buf = io.StringIO()
        run_simulation(cfg, strategy, run_seed, trace=buf)
        return buf.getvalue()

    ok = True
    details = []
    pairs = (
        ("pss:0", "mincost"),
        ("pss:1", "minqueue"),
        ("mcs:100", "minqueue"),
    )
    for left, right in pairs:
        same = traced(left) == traced(right)
        ok &= same
        details.append(f"{left} trace {'==' if same else '!='} {right}")

    # weighted scoring at the weight extremes: membership in the pure
    # argmin sets on every single event
    layout = random_lattice_layout(
        cfg.n_users, cfg.n_servers, cfg.lattice_side, substream(run_seed, "layout")
    )
    rows = manhattan_cost_matrix(layout).entries
    violations = {"wmc:1": 0, "wmc:0": 0}

    def check_cost_argmin(t, user, fidx, cands, queues, decision):
        best = min(rows[user][k] for k in cands)
        if rows[user][decision.server] != best:
            violations["wmc:1"] += 1

    def check_queue_argmin(t, user, fidx, cands, queues, decision):
        best = min(queues[k] for k in cands)
        if queues[decision.server] != best:
            violations["wmc:0"] += 1

    run_simulation(cfg, "wmc:1", run_seed, decision_hook=check_cost_argmin)
    run_simulation(cfg, "wmc:0", run_seed, decision_hook=check_queue_argmin)
    ok &= violations["wmc:1"] == 0 and violations["wmc:0"] == 0
    details.append(
        f"wmc:1 min-cost-set violations {violations['wmc:1']}, "
        f"wmc:0 min-queue-set violations {violations['wmc:0']} over 20000 events each"
    )
    _verdict(capsys, 4, ok, "; ".join(details))


# --------------------------------------------------------------------------
# criteria 5 and 6: trade-off curves over cache sizes, shared fixture

# Parameter grids per (cache size, family), listed in the balance
# direction (toward queue-awareness: wait falls, cost rises). Grid
# density was chosen so adjacent points sit apart in wait. Many points
# are overloaded: some server is offered more work than it can serve, so
# the point's mean wait grows with the run length instead of settling.
# At M=2 every point is: 11-19 files per run sit on a single server, and
# each file alone offers it 90/70 ~ 1.29 times its capacity. At M=70 the
# cost-leaning points wmc:1/0.97/0.9 and mcs:1-4 are, and so is mcs:8 in
# run 0, where no split of users over their 8 cheapest servers keeps the
# busiest below 1.064 of capacity. Criterion 6 reads only the steady
# points; mcs:12 (at most 0.941 in every run) gives the M=70 mcs curve a
# second steady point next to mcs:16.
TRADEOFF_GRIDS = {
    (2, "pss"): (0.0, 0.25, 0.5, 0.75, 1.0),
    (2, "wmc"): (1.0, 0.75, 0.5, 0.25, 0.0),
    (2, "mcs"): (1, 2, 3, 4),
    (8, "pss"): (0.0, 0.25, 0.5, 0.75, 1.0),
    (8, "wmc"): (1.0, 0.75, 0.5, 0.25, 0.0),
    (8, "mcs"): (1, 2, 4, 8),
    (70, "pss"): (0.0, 0.25, 0.5, 0.75, 1.0),
    (70, "wmc"): (1.0, 0.97, 0.9, 0.75, 0.5, 0.0),
    (70, "mcs"): (1, 2, 3, 4, 8, 12, 16),
}
N_SWEEP_RUNS = 10
SWEEP_EVENTS = 100_000
SWEEP_WARMUP = 10_000


class CurvePoint:
    def __init__(self, param, wait, wait_ci, cost, cost_ci, overloaded_runs):
        self.param = param
        self.wait = wait
        self.wait_ci = wait_ci
        self.cost = cost
        self.cost_ci = cost_ci
        self.overloaded_runs = overloaded_runs


@pytest.fixture(scope="module")
def tradeoff():
    t0 = time.monotonic()
    curves = {}
    for (m_size, family), params in TRADEOFF_GRIDS.items():
        cfg = default_config(
            cache_size=m_size, horizon_events=SWEEP_EVENTS, warmup_events=SWEEP_WARMUP
        )
        points = []
        for param in params:
            spec = StrategySpec(family, param)
            waits, costs = [], []
            overloaded_runs = 0
            for run_idx in range(N_SWEEP_RUNS):
                # same seed across families and params: common random numbers
                seed = mix_seed(5000, "tradeoff", m_size, run_idx)
                r = run_simulation(cfg, spec, seed)
                waits.append(r.avg_wait)
                costs.append(r.avg_cost)
                overloaded_runs += r.overloaded
            points.append(CurvePoint(
                param, mean(waits), _ci95(waits), mean(costs), _ci95(costs),
                overloaded_runs,
            ))
        curves[(m_size, family)] = points
    return {"curves": curves, "elapsed": time.monotonic() - t0}


def test_criterion_5_tradeoff_monotonicity(capsys, tradeoff):
    ok = True
    details = []
    for (m_size, family), points in tradeoff["curves"].items():
        soft = hard = 0
        for a, b in zip(points, points[1:]):
            # balance direction: wait must not rise, cost must not fall
            if b.wait > a.wait:
                if b.wait - a.wait <= a.wait_ci + b.wait_ci:
                    soft += 1
                else:
                    hard += 1
            if b.cost < a.cost:
                if a.cost - b.cost <= a.cost_ci + b.cost_ci:
                    soft += 1
                else:
                    hard += 1
        curve_ok = hard == 0 and soft <= 1
        ok &= curve_ok
        if not curve_ok or soft:
            details.append(f"M={m_size} {family}: {hard} hard, {soft} soft inversions")
    elapsed = tradeoff["elapsed"]
    ok &= elapsed < 600.0
    summary = "all 9 curves monotone" if not details else "; ".join(details)
    _verdict(capsys, 5, ok, f"{summary} (sweeps {elapsed:.0f}s < 600s)")


def _curve_at(points, wait):
    """Interpolated (cost, ci) at a matched wait on a curve.

    The returned ci is the effective half-width of the interpolated
    cost: the cost CI plus the wait CI propagated through the local
    slope of the curve. Both coordinates of every point are sample
    means over n runs, so a matched-wait read-off inherits noise from
    both axes; ignoring the wait axis would understate the CI badly in
    the steep region, where a one-CI wiggle in a point's wait moves the
    interpolated cost by |slope| times that much.
    """
    xs = [p.wait for p in points]
    i = bisect_left(xs, wait)
    i = max(1, min(i, len(xs) - 1))
    a, b = points[i - 1], points[i]
    frac = (wait - a.wait) / (b.wait - a.wait)
    slope = (b.cost - a.cost) / (b.wait - a.wait)
    cost = a.cost + frac * (b.cost - a.cost)
    cost_ci = a.cost_ci + frac * (b.cost_ci - a.cost_ci)
    wait_ci = a.wait_ci + frac * (b.wait_ci - a.wait_ci)
    return cost, cost_ci + abs(slope) * wait_ci


def _log_probes(lo, hi, fracs=(0.15, 0.3, 0.5, 0.7, 0.85)):
    """Matched waits spread geometrically across the overlap [lo, hi].

    The wait axis spans more than two decades at the largest cache
    size (congested plateau near the cost-greedy end, sub-second waits
    at the queue-greedy end); geometric spacing probes both regimes
    instead of clustering every probe in the plateau.
    """
    llo, lhi = math.log(lo), math.log(hi)
    return [math.exp(llo + frac * (lhi - llo)) for frac in fracs]


def _by_wait(points):
    return sorted(points, key=lambda p: p.wait)


def _steady_curves(curves, m_size, families):
    """Steady points of each family's curve at one cache size, by wait.

    A point is steady when none of its runs is flagged overloaded. An
    overloaded point's mean wait grows with the run length, so reading it
    at a matched wait would compare run lengths, not strategies. Returns
    the steady curves, the matched waits to probe, a note naming the
    excluded points, and the reasons no comparison can be made: a curve
    left with fewer than two steady points, or steady wait ranges that do
    not overlap. When there is a reason there are no probes, and the
    clause fails.
    """
    steady, excluded, problems = {}, [], []
    for fam in families:
        points = curves[(m_size, fam)]
        flagged = [f"{p.param:g}" for p in points if p.overloaded_runs]
        if flagged:
            excluded.append(f"{fam}:{','.join(flagged)}")
        steady[fam] = _by_wait([p for p in points if not p.overloaded_runs])
        if len(steady[fam]) < 2:
            problems.append(f"{fam} has {len(steady[fam])} steady point(s), needs 2")
    probes = []
    if not problems:
        lo = max(c[0].wait for c in steady.values())
        hi = min(c[-1].wait for c in steady.values())
        if lo < hi:
            probes = _log_probes(lo, hi)
        else:
            problems.append(f"steady wait ranges do not overlap ({lo:.2f} >= {hi:.2f})")
    note = f"M={m_size} {' '.join(excluded) or 'none'}"
    return steady, probes, note, problems


def _criterion_6(curves):
    """(passed, detail) of criterion 6 over the trade-off curves."""
    ok = True
    details = []
    notes = []

    # M=8: at matched mean waits, weighted scoring beats probe-limited
    # mapping beats probabilistic switching, each comparison with one
    # CI of slack (the effective CI of the curve being beaten). The
    # clause cannot be read at M=2, where every point of every curve is
    # overloaded in every run (see TRADEOFF_GRIDS). M=8 is the smallest
    # swept size with a stable mapping in every run: a split over all
    # candidates keeps every server at 0.90 of capacity. Its cost-leaning
    # points still overload some nearest server and are excluded: pss:0,
    # wmc:1 and mcs:1 in every run, and pss:0.25 and pss:0.5 where the
    # forced cost-greedy share alone exceeds a server's capacity.
    fams, probes, note, failures = _steady_curves(curves, 8, ("pss", "wmc", "mcs"))
    notes.append(note)
    for w in probes:
        at = {f: _curve_at(c, w) for f, c in fams.items()}
        if not at["wmc"][0] <= at["mcs"][0] + at["mcs"][1]:
            failures.append(
                f"wait {w:.2f}: wmc {at['wmc'][0]:.2f} > mcs "
                f"{at['mcs'][0]:.2f}+{at['mcs'][1]:.2f}"
            )
        if not at["mcs"][0] <= at["pss"][0] + at["pss"][1]:
            failures.append(
                f"wait {w:.2f}: mcs {at['mcs'][0]:.2f} > pss "
                f"{at['pss'][0]:.2f}+{at['pss'][1]:.2f}"
            )
    ok &= not failures
    details.append(
        f"M=8 ordering wmc <= mcs <= pss holds at {len(probes)} matched waits"
        if not failures else "M=8: " + "; ".join(failures)
    )

    # M=70: weighted scoring and probe-limited mapping should nearly
    # coincide; agreement means the two interpolated costs sit within
    # the sum of their effective CIs at every matched wait.
    fams, probes, note, failures = _steady_curves(curves, 70, ("wmc", "mcs"))
    notes.append(note)
    for w in probes:
        a, ci_a = _curve_at(fams["wmc"], w)
        b, ci_b = _curve_at(fams["mcs"], w)
        if abs(a - b) > ci_a + ci_b:
            failures.append(
                f"wait {w:.2f}: wmc {a:.2f} vs mcs {b:.2f} "
                f"(diff {abs(a - b):.2f} > ci {ci_a + ci_b:.2f})"
            )
    ok &= not failures
    details.append(
        f"M=70 wmc and mcs agree within CI at {len(probes)} matched waits"
        if not failures else "M=70: " + "; ".join(failures)
    )
    details.append("excluded as overloaded: " + ", ".join(notes))
    return ok, "; ".join(details)


def test_criterion_6_cross_family_cost_ordering(capsys, tradeoff):
    _verdict(capsys, 6, *_criterion_6(tradeoff["curves"]))


def test_criterion_6_fails_without_two_steady_points():
    # Synthetic curves on which both clauses hold; flagging points must
    # turn the verdict to FAIL instead of leaving a clause with nothing
    # to compare.
    def curve(costs, flagged=()):
        return [
            CurvePoint(i, wait, 0.05, cost, 0.1, int(i in flagged))
            for i, (wait, cost) in enumerate(zip((1.0, 2.0, 3.0), costs))
        ]

    def curves(**flagged):
        return {
            (8, "pss"): curve((12.0, 10.0, 8.0), flagged.get("pss8", ())),
            (8, "wmc"): curve((8.0, 6.0, 4.0)),
            (8, "mcs"): curve((10.0, 8.0, 6.0)),
            (70, "wmc"): curve((4.0, 3.0, 2.0)),
            (70, "mcs"): curve((4.1, 3.1, 2.1), flagged.get("mcs70", ())),
        }

    ok, detail = _criterion_6(curves())
    assert ok, detail
    assert "excluded as overloaded: M=8 none, M=70 none" in detail
    ok, detail = _criterion_6(curves(mcs70=(0, 1)))
    assert not ok
    assert "mcs has 1 steady point(s)" in detail and "M=70 mcs:0,1" in detail
    ok, detail = _criterion_6(curves(pss8=(0, 1, 2)))
    assert not ok
    assert "pss has 0 steady point(s)" in detail


# --------------------------------------------------------------------------
# criterion 7: exhaustive search dominates every strategy on tiny traces


def test_criterion_7_oracle_dominance(capsys):
    strategies = ("mincost", "minqueue", "pss:0.5", "wmc:0.5", "mcs:2")
    violations = []
    argmin_mismatches = 0
    for i in range(20):
        inst = random_tiny_instance(Random(7000 + i), n_requests=6)
        for weight in (0.0, 0.5, 1.0):
            seq, _, _, beaten = dominance(inst, weight, strategies, lambda: Random(100 + i))
            violations.extend((i, weight, strat) for strat in beaten)
            if weight == 1.0:
                cands = inst.request_candidates()
                expected = tuple(
                    min(cands[j], key=lambda k: inst.cost.entries[inst.users[j]][k])
                    for j in range(inst.n_requests)
                )
                if seq != expected:
                    argmin_mismatches += 1
    ok = not violations and argmin_mismatches == 0
    _verdict(
        capsys, 7, ok,
        f"oracle <= all 5 strategies on 20 instances x 3 weights "
        f"({len(violations)} violations); pure-cost sequences match per-request "
        f"argmin ({argmin_mismatches} mismatches)",
    )


# --------------------------------------------------------------------------
# criterion 8: byte-identical sweep output across reruns and worker counts


def test_criterion_8_sweep_determinism(capsys, tmp_path):
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    base = [
        "--strategy", "pss", "--sweep", "0,0.5,1", "--cache-sizes", "2,8",
        "--runs", "2", "--seed", "77", "--events", "5000",
    ]
    rcs = [
        main(base + ["--workers", "1", "--out", str(outs[0])]),
        main(base + ["--workers", "1", "--out", str(outs[1])]),
        main(base + ["--workers", "3", "--out", str(outs[2])]),
    ]
    blobs = [p.read_bytes() for p in outs]
    ok = rcs == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2]
    _verdict(
        capsys, 8, ok,
        f"rerun and 3-worker CSVs byte-identical ({len(blobs[0])} bytes, "
        f"6 sweep points x 2 runs)",
    )
