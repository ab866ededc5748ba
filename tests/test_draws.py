"""Draw identity of cdnsim.draws with the running interpreter's Random."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from cdnsim.draws import below, sample, sample_plan


def _setsize(k: int) -> int:
    # The size below which Random.sample keeps a pool list (CPython 3.11).
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _same_sample(n: int, k: int, seed: int) -> bool:
    rng, ref = Random(seed), Random(seed)
    draws, pooled = sample_plan(n, k)
    assert len(draws) == k
    assert pooled == (n <= _setsize(k))
    assert sample(range(n), draws, pooled, rng.getrandbits) == ref.sample(range(n), k)
    return rng.random() == ref.random()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_sample_pool_branch_matches_random_sample(data, seed):
    # n at most the pool threshold: Random.sample keeps a list and swaps.
    k = data.draw(st.integers(0, 60), label="k")
    n = data.draw(st.integers(max(k, 1), _setsize(k)), label="n")
    assert _same_sample(n, k, seed)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_sample_set_branch_matches_random_sample(data, seed):
    # n above the threshold: Random.sample redraws positions picked before.
    # Small n keep repeated positions, and so redraws, frequent.
    k = data.draw(st.integers(0, 40), label="k")
    n = data.draw(st.integers(_setsize(k) + 1, _setsize(k) + 400), label="n")
    assert _same_sample(n, k, seed)


# Each branch at its threshold, and the placements of the paper's grid:
# 2 and 8 of 70 files (set and pool branch).
@pytest.mark.parametrize("n, k", [(21, 5), (22, 5), (1, 1), (85, 8), (86, 8), (70, 2), (70, 8)])
def test_sample_matches_random_sample_at_pinned_sizes(n, k):
    for seed in range(50):
        assert _same_sample(n, k, seed)


@settings(max_examples=200, deadline=None)
@given(side=st.integers(1, 2000) | st.sampled_from((1, 2, 3, 2**31, 2**32 + 1, 10**15)),
       count=st.integers(0, 50), seed=st.integers(0, 2**64 - 1))
def test_below_matches_randint(side, count, seed):
    # Every bound, powers of two and one above included, and the one-cell
    # lattice, which still draws a bit per coordinate.
    rng, ref = Random(seed), Random(seed)
    assert below(side, count, rng.getrandbits) == [ref.randint(0, side - 1)
                                                   for _ in range(count)]
    assert rng.random() == ref.random()
