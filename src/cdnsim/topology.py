"""Random lattice placement of users and servers, Manhattan delivery costs,
and cost matrices read from CSV files by model.read_number."""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from random import Random

from .draws import below
from .model import ConfigError, CostMatrix, check_lattice_side, read_number

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
        check_lattice_side(side)
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
    check_lattice_side(side)
    # Random.randint(0, side - 1) for x then y, users first, then servers.
    coords = iter(below(side, 2 * (n_users + n_servers), rng.getrandbits))
    points = tuple(zip(coords, coords))
    return LatticeLayout(side, points[:n_users], points[n_users:])


def _distance_rows(user_cs, server_cs):
    # ({u: [|u - c| for c in server_cs]}, [each row's distances]) over the
    # distinct user coordinates u. |u - c| is computed once per distinct
    # server coordinate c, in a dict that each row is mapped from in C.
    floats = {c: float(c) for c in dict.fromkeys(server_cs)}
    dists = {u: {c: abs(u - f) for c, f in floats.items()} for u in dict.fromkeys(user_cs)}
    return ({u: list(map(d.__getitem__, server_cs)) for u, d in dists.items()},
            [d.values() for d in dists.values()])


def manhattan_cost_matrix(layout: LatticeLayout) -> CostMatrix:
    """Delivery cost = |dx| + |dy| between user and server positions.

    Per distinct user x, the float distance |ux - sx| is computed once per
    distinct server x (about 20 of 100 servers at side 20) and mapped over
    the servers into a row; the same goes for y. One cost row is built per
    distinct user cell, the elementwise sum of its two distance rows;
    users on the same cell share that row. The distances are small
    integers, so every float sum is exact and equals float(|dx| + |dy|).
    The rows go to CostMatrix._of_sums with the distinct distance values,
    on which it checks the entry rule; the sums are not converted or
    walked again.
    """
    users, servers = layout.users, layout.servers
    x_rows, x_distances = _distance_rows([x for x, _ in users], [x for x, _ in servers])
    y_rows, y_distances = _distance_rows([y for _, y in users], [y for _, y in servers])
    cell_rows = {cell: tuple(map(add, x_rows[cell[0]], y_rows[cell[1]]))
                 for cell in dict.fromkeys(users)}
    return CostMatrix._of_sums(tuple(map(cell_rows.__getitem__, users)), x_distances, y_distances)


def load_cost_matrix(path) -> CostMatrix:
    """Read a headerless CSV with one row per user, one column per server."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line:
                where = f"cost matrix line {lineno}"
                rows.append(tuple(read_number(v, where) for v in line.split(",")))
    if not rows:
        raise ConfigError("cost matrix file is empty")
    return CostMatrix(rows)
