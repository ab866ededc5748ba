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
    """Integer grid positions of every user and server; collisions allowed.

    Construction checks the whole lattice rule: side passes
    check_lattice_side and every coordinate is an int in [0, side). So
    every distance between two points is an exact float below 2**52, and
    the Manhattan builder's costs keep the entry rule by construction.
    """

    side: int
    users: tuple[Point, ...]
    servers: tuple[Point, ...]

    def __post_init__(self) -> None:
        side = self.side
        check_lattice_side(side)
        for label, pts in (("user", self.users), ("server", self.servers)):
            for i, (x, y) in enumerate(pts):
                if not (isinstance(x, int) and isinstance(y, int)
                        and 0 <= x < side and 0 <= y < side):
                    raise ConfigError(f"{label} {i} at {(x, y)} is off the {side}x{side} grid")


def random_lattice_layout(n_users: int, n_servers: int, side: int, rng: Random) -> LatticeLayout:
    """Drop every node independently and uniformly on a side x side grid."""
    check_lattice_side(side)
    # Random.randint(0, side - 1) for x then y, users first, then servers.
    coords = iter(below(side, 2 * (n_users + n_servers), rng.getrandbits))
    points = tuple(zip(coords, coords))
    return LatticeLayout(side, points[:n_users], points[n_users:])


def _distance_rows(user_cs, server_cs):
    # {u: [|u - c| for c in server_cs]} over the distinct user coordinates
    # u. |u - c| is computed once per distinct server coordinate c, in a
    # dict that each row is mapped from in C.
    floats = {c: float(c) for c in dict.fromkeys(server_cs)}
    return {u: list(map({c: abs(u - f) for c, f in floats.items()}.__getitem__, server_cs))
            for u in dict.fromkeys(user_cs)}


def manhattan_cost_matrix(layout: LatticeLayout) -> CostMatrix:
    """Delivery cost = |dx| + |dy| between user and server positions.

    Per distinct user x, the float distance |ux - sx| is computed once per
    distinct server x (about 20 of 100 servers at side 20) and mapped over
    the servers into a row; the same goes for y. One cost row is built per
    distinct user cell, the elementwise sum of its two distance rows;
    users on the same cell share that row. The layout's checked
    invariant makes every distance an exact float below 2**52 and every
    sum an exact float below 2**53 that equals float(|dx| + |dy|). The
    rows thus keep the entry rule by construction and go to
    CostMatrix._of_sums, which takes them as given.
    """
    users, servers = layout.users, layout.servers
    x_rows = _distance_rows([x for x, _ in users], [x for x, _ in servers])
    y_rows = _distance_rows([y for _, y in users], [y for _, y in servers])
    cell_rows = {cell: tuple(map(add, x_rows[cell[0]], y_rows[cell[1]]))
                 for cell in dict.fromkeys(users)}
    return CostMatrix._of_sums(tuple(map(cell_rows.__getitem__, users)))


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
