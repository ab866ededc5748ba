"""Random lattice placement of users and servers, Manhattan delivery costs."""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .model import ConfigError, CostMatrix

Point = tuple[int, int]


@dataclass(frozen=True)
class LatticeLayout:
    """Integer grid positions of every user and server; collisions allowed."""

    side: int
    users: tuple[Point, ...]
    servers: tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.side < 1:
            raise ConfigError("lattice side must be >= 1")
        for label, pts in (("user", self.users), ("server", self.servers)):
            for i, (x, y) in enumerate(pts):
                if not (0 <= x < self.side and 0 <= y < self.side):
                    raise ConfigError(f"{label} {i} at {(x, y)} is off the {self.side}x{self.side} grid")


def random_lattice_layout(n_users: int, n_servers: int, side: int, rng: Random) -> LatticeLayout:
    """Drop every node independently and uniformly on a side x side grid."""
    if side < 1:
        raise ConfigError("lattice side must be >= 1")
    top = side - 1
    users = tuple((rng.randint(0, top), rng.randint(0, top)) for _ in range(n_users))
    servers = tuple((rng.randint(0, top), rng.randint(0, top)) for _ in range(n_servers))
    return LatticeLayout(side, users, servers)


def manhattan_cost_matrix(layout: LatticeLayout) -> CostMatrix:
    """Delivery cost = |dx| + |dy| between user and server positions
    (integer distances; CostMatrix converts them to float)."""
    return CostMatrix(tuple(
        [abs(ux - sx) + abs(uy - sy) for sx, sy in layout.servers] for ux, uy in layout.users
    ))


def load_cost_matrix(path) -> CostMatrix:
    """Read a headerless CSV with one row per user, one column per server."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append(tuple(float(v) for v in line.split(",")))
            except ValueError:
                raise ConfigError(f"cost matrix line {lineno}: non-numeric entry") from None
    if not rows:
        raise ConfigError("cost matrix file is empty")
    return CostMatrix(rows)


def save_cost_matrix(matrix: CostMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix.entries:
            fh.write(",".join(f"{c:g}" for c in row) + "\n")
