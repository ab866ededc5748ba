"""Byte-identity of `simulate` outputs against committed copies.

Short sweeps of the pss, wmc and mcs trade-off grids at M = 2, 8 and 70
(2 runs of 2,000 arrivals per point), one of them also with
--fixed-topology; 500-arrival traces of single runs that take the queue
index at full replication, the memo on partial replication, wmc's
endpoint twins, mincost and pss:0, and mcs's tie sampling;
--dump-placement files at M = 2, 8 and 70, drawn per run and from a
fixed topology; and the replayed policy values that `simulate
oracle-check` prints. A change that alters any layout, placement,
decision or draw changes one of these files.

The files in tests/data/golden were written by this module. To rewrite
them after a change that is meant to alter outputs (and says so), run
`PYTHONPATH=src python tests/test_golden.py`.
"""

from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cdnsim.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
COMMON = ["--events", "2000", "--warmup", "200", "--seed", "12", "--workers", "1"]

# The criterion 5 grids of each family, merged over M.
SWEEPS = {
    "pss": "0,0.25,0.5,0.75,1",
    "wmc": "0,0.25,0.5,0.75,0.9,0.97,1",
    "mcs": "1,2,3,4,8,12,16",
}
# At M=70 every file is on every server, so these read the queue index.
# mincost, pss:0 and wmc:1 take pss's switch rule at switch probability 0.
TRACES = {
    "wmc0_M70": ("wmc:0", 70),
    "wmc0.5_M70": ("wmc:0.5", 70),
    "pss0.5_M70": ("pss:0.5", 70),
    "wmc1_M8": ("wmc:1", 8),
    "wmc1_M70": ("wmc:1", 70),
    "wmc0.5_M8": ("wmc:0.5", 8),
    "mcs3_M8": ("mcs:3", 8),
    "mincost_M8": ("mincost", 8),
    "mincost_M70": ("mincost", 70),
    "pss0_M8": ("pss:0", 8),
}
# Placement dumps: (cache size, extra flags). At M=2 a uniform cache draw
# takes Random.sample's set branch, at M=8 its pool branch; M=70 is full
# replication.
PLACEMENTS = {
    "M2": (2, []),
    "M8": (8, []),
    "M70": (70, []),
    "M8_fixed": (8, ["--fixed-topology"]),
    "M70_fixed": (70, ["--fixed-topology"]),
}
# Every replayed policy value of a brute-force dominance check, in repr.
ORACLE_ARGV = ["oracle-check", "--instances", "6", "--seed", "4", "--cost-weights", "0,0.5,1"]


def _sweep_argv(family: str, out: Path, *extra: str) -> list[str]:
    return ["--strategy", family, "--sweep", SWEEPS[family], "--cache-sizes", "2,8,70",
            "--runs", "2", *COMMON, *extra, "--out", str(out)]


def _trace_argv(name: str, out: Path, trace: Path) -> list[str]:
    strategy, m = TRACES[name]
    return ["--strategy", strategy, "--cache-sizes", str(m), "--runs", "1",
            "--events", "500", "--warmup", "50", "--seed", "5",
            "--out", str(out), "--trace", str(trace)]


def _placement_argv(name: str, out: Path, placement: Path) -> list[str]:
    m, extra = PLACEMENTS[name]
    return ["--strategy", "mincost", "--cache-sizes", str(m), "--runs", "1",
            "--events", "100", "--warmup", "10", "--seed", "9", *extra,
            "--out", str(out), "--dump-placement", str(placement)]


def _write_oracle_check(path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh, redirect_stdout(fh):
        assert main(ORACLE_ARGV) == 0


@pytest.mark.parametrize("family", sorted(SWEEPS))
def test_sweep_csv_is_byte_identical_to_the_golden_copy(family, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(_sweep_argv(family, out)) == 0
    assert out.read_bytes() == (GOLDEN / f"sweep_{family}.csv").read_bytes()


def test_fixed_topology_sweep_csv_is_byte_identical_to_the_golden_copy(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(_sweep_argv("mcs", out, "--fixed-topology")) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_mcs_fixed.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(PLACEMENTS))
def test_placement_dump_is_byte_identical_to_the_golden_copy(name, tmp_path):
    placement = tmp_path / "placement.txt"
    assert main(_placement_argv(name, tmp_path / "point.csv", placement)) == 0
    assert placement.read_bytes() == (GOLDEN / f"placement_{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_is_byte_identical_to_the_golden_copy(name, tmp_path):
    trace = tmp_path / "trace.csv"
    assert main(_trace_argv(name, tmp_path / "point.csv", trace)) == 0
    assert trace.read_bytes() == (GOLDEN / f"trace_{name}.csv").read_bytes()


def test_oracle_check_output_is_byte_identical_to_the_golden_copy(tmp_path):
    out = tmp_path / "oracle_check.txt"
    _write_oracle_check(out)
    assert out.read_bytes() == (GOLDEN / "oracle_check.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for family in SWEEPS:
        main(_sweep_argv(family, GOLDEN / f"sweep_{family}.csv"))
    main(_sweep_argv("mcs", GOLDEN / "sweep_mcs_fixed.csv", "--fixed-topology"))
    point_csv = GOLDEN / "point.csv"
    for name in TRACES:
        main(_trace_argv(name, point_csv, GOLDEN / f"trace_{name}.csv"))
    for name in PLACEMENTS:
        main(_placement_argv(name, point_csv, GOLDEN / f"placement_{name}.txt"))
    point_csv.unlink()
    _write_oracle_check(GOLDEN / "oracle_check.txt")
