"""Benchmark of cdnsim: one workload per call, or all of them.

    python3 perfbench/run.py --workload two_choices --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With --trace 0 the workload's rounds run untraced for --seconds seconds
and the end-to-end metrics are reported; with --trace 1 one traced pass
gives the per-layer metrics and writes out/<workload>/spans.jsonl. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("full_replication", "two_choices", "tradeoff_sweep")


def import_program():
    """Import cdnsim from this checkout's sources, and nowhere else."""
    if not (SRC / "cdnsim" / "__init__.py").is_file():
        raise SystemExit("perfbench: no cdnsim sources in src/ next to the benchmark")
    sys.path.insert(0, str(SRC))
    import cdnsim
    if Path(cdnsim.__file__).resolve().parent != SRC / "cdnsim":
        raise SystemExit(f"perfbench: imported cdnsim from {cdnsim.__file__}, not from src/")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child (the sweep's pool workers), as the kernel reports it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import layers
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    tally = workloads.Tally()
    if trace:
        metrics, repeats = layers.traced_run(workload, out_dir, tally,
                                             check_choices=name == "full_replication")
    else:
        workload.prepare(out_dir)
        repeats = workloads.Repeats()
        rates, host_rates, setups = [], [], []

        def setup_block():
            setups.append(workload.setup_block(len(setups)))

        start = perf_counter()
        while not rates or perf_counter() - start < seconds:
            busy, nominal = workload.round(out_dir, tally, repeats, setup_block)
            rates.append(workload.arrivals / nominal)
            host_rates.append(workload.arrivals / busy)
        rss = peak_rss_mb()
        workload.after_rounds(out_dir, tally)
        # Times are on the nominal clock of gauge.py: the host's speed drifts
        # by up to 1.5 times for minutes, more than any median over one run
        # can absorb. The host's own rates are printed for comparison.
        setup_medians = [median(times) for times in zip(*setups)]
        print(f"rounds {len(rates)}: arrivals/s " + " ".join(f"{r:.0f}" for r in rates)
              + "; on the host's clock " + " ".join(f"{r:.0f}" for r in host_rates)
              + f"; set-up blocks {len(setups)}, median ms "
              + " ".join(f"{1e3 * m:.3f}" for m in setup_medians))
        metrics = {
            "arrivals_per_s": (median(rates), "arrivals/s"),
            "setup_s": (sum(setup_medians) / len(setup_medians), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"fingerprint {name} {repeats.fingerprint()}")
    for key, (value, unit) in metrics.items():
        print(f"{name:>16} {key:<36} {value:>16.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: int) -> dict:
    """Each workload in a fresh process, untraced and then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {name} --trace {trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
