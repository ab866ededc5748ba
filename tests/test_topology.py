"""Lattice layouts, Manhattan cost matrices, and matrix file I/O."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from cdnsim.model import ConfigError, CostMatrix
from cdnsim.topology import (
    LatticeLayout,
    load_cost_matrix,
    manhattan_cost_matrix,
    random_lattice_layout,
)


def test_manhattan_hand_example():
    layout = LatticeLayout(
        side=5,
        users=((0, 0), (4, 4)),
        servers=((0, 0), (2, 3), (4, 0)),
    )
    matrix = manhattan_cost_matrix(layout)
    assert matrix.entries[0] == (0.0, 5.0, 4.0)
    assert matrix.entries[1] == (8.0, 3.0, 4.0)
    assert all(type(c) is float for row in matrix.entries for c in row)


def test_layout_rejects_out_of_bounds_points():
    with pytest.raises(ConfigError):
        LatticeLayout(side=3, users=((0, 3),), servers=((0, 0),))
    with pytest.raises(ConfigError):
        LatticeLayout(side=3, users=((0, 0),), servers=((-1, 0),))
    with pytest.raises(ConfigError):
        LatticeLayout(side=0, users=(), servers=())
    # The first point off the grid is named, users before servers.
    with pytest.raises(ConfigError, match=r"^server 2 at \(1, 3\) is off the 3x3 grid$"):
        LatticeLayout(side=3, users=((0, 0), (2, 2)),
                      servers=((0, 2), (2, 0), (1, 3), (1, 1), (-1, 0)))
    with pytest.raises(ConfigError, match=r"^user 1 at \(3, 0\) is off the 3x3 grid$"):
        LatticeLayout(side=3, users=((0, 0), (3, 0), (0, -1)), servers=((1, 5),))


def test_random_layout_is_deterministic_per_seed():
    a = random_lattice_layout(10, 7, 20, Random(42))
    b = random_lattice_layout(10, 7, 20, Random(42))
    c = random_lattice_layout(10, 7, 20, Random(43))
    assert a == b
    assert a != c
    assert len(a.users) == 10
    assert len(a.servers) == 7


def test_random_layout_rejects_an_empty_grid():
    # Without the check, drawing below 0 would never return.
    with pytest.raises(ConfigError, match="lattice side must be >= 1"):
        random_lattice_layout(2, 2, 0, Random(0))


def test_random_layout_coordinates_are_uniform():
    # Pool all coordinates from many layouts; each of the side^2 cells
    # should be hit with frequency 1 / side^2.
    side = 10
    rng = Random(8)
    counts = {}
    total = 0
    for _ in range(500):
        layout = random_lattice_layout(100, 100, side, rng)
        for pt in layout.users + layout.servers:
            counts[pt] = counts.get(pt, 0) + 1
            total += 1
    assert total == 100_000
    target = 1.0 / side**2
    assert len(counts) == side**2
    for c in counts.values():
        assert abs(c / total - target) < 0.002


@settings(max_examples=50, deadline=None)
@given(
    side=st.integers(1, 30),
    n_users=st.integers(1, 6),
    n_servers=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_manhattan_matrix_properties(side, n_users, n_servers, seed):
    layout = random_lattice_layout(n_users, n_servers, side, Random(seed))
    matrix = manhattan_cost_matrix(layout)
    assert matrix.n_users == n_users
    assert matrix.n_servers == n_servers
    bound = 2 * (side - 1)
    for i in range(n_users):
        for k in range(n_servers):
            cost = matrix.entries[i][k]
            assert cost == int(cost)
            assert 0 <= cost <= bound
            ux, uy = layout.users[i]
            sx, sy = layout.servers[k]
            assert cost == abs(ux - sx) + abs(uy - sy)


def _layout_cases():
    # (name, layout): one-cell lattice; default side; side 1000 with every
    # user and server coordinate distinct; many nodes on a few cells.
    rng = Random(11)
    xs, ys = rng.sample(range(1000), 150), rng.sample(range(1000), 150)
    distinct = LatticeLayout(1000, tuple(zip(xs[:50], ys[:50])), tuple(zip(xs[50:], ys[50:])))
    cells = [(0, 0), (2, 1), (1, 2)]
    colliding = LatticeLayout(3, tuple(rng.choice(cells) for _ in range(40)),
                              tuple(rng.choice(cells) for _ in range(30)))
    return [("side1", random_lattice_layout(30, 20, 1, rng)),
            ("side20", random_lattice_layout(100, 100, 20, rng)),
            ("side1000_distinct", distinct),
            ("colliding", colliding)]


@pytest.mark.parametrize("name, layout", _layout_cases())
def test_manhattan_matrix_equals_per_entry_distances(name, layout):
    matrix = manhattan_cost_matrix(layout)
    entries = matrix.entries
    assert entries == tuple(
        tuple(float(abs(ux - sx) + abs(uy - sy)) for sx, sy in layout.servers)
        for ux, uy in layout.users
    )
    assert all(type(c) is float for row in entries for c in row)
    # The full conversion and check accept the builder's rows as they are.
    assert CostMatrix(entries) == matrix
    # Users on one cell share one row.
    row_of_cell = {}
    for cell, row in zip(layout.users, entries):
        assert row_of_cell.setdefault(cell, row) is row
    if name in ("side1", "colliding"):
        assert len(row_of_cell) < len(layout.users)


def test_manhattan_matrix_rejects_a_cost_that_overflows():
    far = 15 * 10**307
    layout = LatticeLayout(2 * far, users=((0, 0),), servers=((far, far),))
    with pytest.raises(ConfigError, match="^cost may overflow: largest x distance 1.5e"):
        manhattan_cost_matrix(layout)


def test_cost_matrix_roundtrip(tmp_path):
    matrix = CostMatrix([[0.0, 5.5, 4.0], [8.0, 3.0, 4.25]])
    path = tmp_path / "costs.csv"
    path.write_text("0,5.5,4\n8.0,3,4.25\n")
    loaded = load_cost_matrix(path)
    assert loaded == matrix


def test_load_cost_matrix_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ConfigError):
        load_cost_matrix(path)


def test_load_cost_matrix_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ConfigError, match="^cost matrix line 2 has a non-numeric value 'oops'$"):
        load_cost_matrix(path)


def test_load_cost_matrix_rejects_negative_and_empty(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("1,-2\n")
    with pytest.raises(ConfigError):
        load_cost_matrix(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_cost_matrix(empty)
