"""Random.sample and Random.randint draws, made from getrandbits directly.

Each helper makes exactly the getrandbits calls that CPython 3.11's
Random.sample(population, k) or Random.randint(0, n - 1) makes, and
returns what they return, without their per-call argument checks and
method lookups. A pick below a bound m is a rejection loop on
getrandbits(m.bit_length()), as Random._randbelow makes it. The tests
check both helpers against the running interpreter's Random.
"""

from __future__ import annotations

import math


def sample_plan(n: int, k: int):
    """(draws, pooled) of Random.sample over a population of n, k picks.

    draws holds one (bound, bit_length) pair per pick; pooled names the
    branch that Random.sample takes: a list of the population when it is
    no larger than a k-element set, else a set of picked positions.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    pooled = n <= setsize
    bounds = range(n, n - k, -1) if pooled else (n,) * k
    return tuple((m, m.bit_length()) for m in bounds), pooled


def sample(population, draws, pooled: bool, getrandbits) -> list:
    """Random.sample(population, len(draws)) from the same getrandbits calls,
    with (draws, pooled) from sample_plan(len(population), len(draws)).

    The pooled branch swaps the last unpicked entry into each picked
    position; the other draws positions over the whole population and
    redraws any picked before. Population entries must be distinct.
    """
    picks = []
    if pooled:
        pool = list(population)
        for m, bits in draws:
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picks.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        # Entries are distinct, so a picked entry marks its position.
        for m, bits in draws:
            j = getrandbits(bits)
            while j >= m or population[j] in picks:
                j = getrandbits(bits)
            picks.append(population[j])
    return picks


def below(n: int, count: int, getrandbits) -> list[int]:
    """count draws of Random.randint(0, n - 1), in order, for n >= 1."""
    bits = n.bit_length()
    picks = []
    for _ in range(count):
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        picks.append(j)
    return picks
