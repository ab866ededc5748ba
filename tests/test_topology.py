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
    save_cost_matrix,
)


def test_manhattan_hand_example():
    layout = LatticeLayout(
        side=5,
        users=((0, 0), (4, 4)),
        servers=((0, 0), (2, 3), (4, 0)),
    )
    matrix = manhattan_cost_matrix(layout)
    assert matrix.row(0) == (0.0, 5.0, 4.0)
    assert matrix.row(1) == (8.0, 3.0, 4.0)
    assert all(type(c) is float for row in matrix.entries for c in row)


def test_layout_rejects_out_of_bounds_points():
    with pytest.raises(ConfigError):
        LatticeLayout(side=3, users=((0, 3),), servers=((0, 0),))
    with pytest.raises(ConfigError):
        LatticeLayout(side=3, users=((0, 0),), servers=((-1, 0),))
    with pytest.raises(ConfigError):
        LatticeLayout(side=0, users=(), servers=())


def test_random_layout_is_deterministic_per_seed():
    a = random_lattice_layout(10, 7, 20, Random(42))
    b = random_lattice_layout(10, 7, 20, Random(42))
    c = random_lattice_layout(10, 7, 20, Random(43))
    assert a == b
    assert a != c
    assert len(a.users) == 10
    assert len(a.servers) == 7


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


def test_cost_matrix_roundtrip(tmp_path):
    matrix = CostMatrix.from_rows([[0.0, 5.5, 4.0], [8.0, 3.0, 4.25]])
    path = tmp_path / "costs.csv"
    save_cost_matrix(matrix, path)
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
    with pytest.raises(ConfigError):
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
