"""Random lattice placement of users and servers, Manhattan delivery costs."""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from random import Random

from .draws import below
from .model import ConfigError, CostMatrix

Point = tuple[int, int]


@dataclass(frozen=True)
class LatticeLayout:
    """Integer grid positions of every user and server; collisions allowed."""

    side: int
    users: tuple[Point, ...]
    servers: tuple[Point, ...]

    def __post_init__(self) -> None:
        # Each coordinate column is scanned by min and max, and the points
        # are walked only to name the first one off the grid.
        side = self.side
        if side < 1:
            raise ConfigError("lattice side must be >= 1")
        for label, pts in (("user", self.users), ("server", self.servers)):
            if not pts:
                continue
            xs, ys = zip(*pts)
            if 0 <= min(xs) and max(xs) < side and 0 <= min(ys) and max(ys) < side:
                continue
            for i, (x, y) in enumerate(pts):
                if not (0 <= x < side and 0 <= y < side):
                    raise ConfigError(f"{label} {i} at {(x, y)} is off the {side}x{side} grid")


def random_lattice_layout(n_users: int, n_servers: int, side: int, rng: Random) -> LatticeLayout:
    """Drop every node independently and uniformly on a side x side grid."""
    if side < 1:
        raise ConfigError("lattice side must be >= 1")
    # Random.randint(0, side - 1) for x then y, users first, then servers.
    coords = iter(below(side, 2 * (n_users + n_servers), rng.getrandbits))
    points = tuple(zip(coords, coords))
    return LatticeLayout(side, points[:n_users], points[n_users:])


def manhattan_cost_matrix(layout: LatticeLayout) -> CostMatrix:
    """Delivery cost = |dx| + |dy| between user and server positions.

    One row of float distances |ux - sx| over the servers is built per
    distinct user x, one of |uy - sy| per distinct user y, and each user's
    row is the sum of its two. The distances are small integers, so every
    float sum is exact and equals float(|dx| + |dy|).
    """
    server_xs = [float(x) for x, _ in layout.servers]
    server_ys = [float(y) for _, y in layout.servers]
    x_rows: dict[int, list[float]] = {}
    y_rows: dict[int, list[float]] = {}
    for ux, uy in layout.users:
        if ux not in x_rows:
            x_rows[ux] = [abs(ux - sx) for sx in server_xs]
        if uy not in y_rows:
            y_rows[uy] = [abs(uy - sy) for sy in server_ys]
    return CostMatrix(tuple(map(add, x_rows[ux], y_rows[uy]) for ux, uy in layout.users))


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
