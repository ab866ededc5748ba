"""File popularity profiles, popularity-proportional cache placement, and
the candidate servers of each file."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from random import Random

from .draws import sample, sample_plan
from .model import CacheAllocation, ConfigError, check_cache_geometry, check_zipf_beta, seq_sum


@dataclass(frozen=True)
class PopularityProfile:
    """Request probabilities over the file library, most popular first."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ConfigError("popularity profile must cover at least one file")
        total = seq_sum(self.probs)
        if not abs(total - 1.0) <= 1e-9:  # a non-finite sum fails too
            raise ConfigError(f"popularity profile sums to {total}, expected 1")

    @property
    def n_files(self) -> int:
        return len(self.probs)

    def cumulative(self) -> list[float]:
        """Running sums for inverse-transform sampling; last entry forced to 1."""
        cum = list(accumulate(self.probs))
        cum[-1] = 1.0
        return cum


@lru_cache(maxsize=32)
def zipf_profile(n_files: int, beta: float) -> PopularityProfile:
    """Power-law popularity: file rank i gets weight 1 / (i+1)^beta,
    normalized over the whole library. beta = 0 is uniform. The profile
    is a frozen value, so each (n_files, beta) is built once per process."""
    check_zipf_beta(beta)
    weights = [(i + 1) ** -beta for i in range(n_files)]
    total = seq_sum(weights)
    return PopularityProfile(tuple(w / total for w in weights))


def _cache_sampler(weights: list[float], cache_size: int, rng: Random):
    """A function drawing one server's cache: draw, remove, renormalize,
    so each pick is proportional to the remaining weights. Uniform
    weights reduce to Random.sample(range(n), cache_size), drawn by
    draws.sample. Every server's pool starts as the same list, so its
    seq_sum, the starting total, is summed once per sampler."""
    n = len(weights)
    if min(weights) == max(weights):
        files = range(n)
        draws, pooled = sample_plan(n, cache_size)
        getrandbits = rng.getrandbits
        return lambda: sample(files, draws, pooled, getrandbits)
    full_total = seq_sum(weights)

    def weighted() -> list[int]:
        live = list(range(n))
        pool = list(weights)
        total = full_total
        picked = []
        for _ in range(cache_size):
            x = rng.random() * total
            acc = 0.0
            j = 0
            for j, w in enumerate(pool):
                acc += w
                if x < acc:
                    break
            picked.append(live[j])
            total -= pool[j]
            del live[j], pool[j]
        return picked

    return weighted


@lru_cache(maxsize=32)
def _full_replication(n_servers: int, n_files: int) -> CacheAllocation:
    # Every server holds the one frozenset of the whole library.
    return CacheAllocation((frozenset(range(n_files)),) * n_servers, n_files)


def proportional_placement(
    profile: PopularityProfile, n_servers: int, cache_size: int, rng: Random
) -> CacheAllocation:
    """Fill each server's cache by popularity-weighted sampling without
    replacement, then repair coverage so every file is held somewhere.

    Repair rule: for each uncovered file (ascending), find the file with
    the most replicas network-wide (ties: lowest file index) and overwrite
    one of its copies on the lowest-index server holding it. The replica
    counts are a list indexed by file, so the donor is
    replicas.index(max(replicas)), found by two C-level scans.

    When cache_size == n_files every server holds every file and nothing
    is drawn: the result is one shared allocation per (n_servers, n_files),
    so consecutive runs on it share one candidate table.
    """
    n_files = profile.n_files
    check_cache_geometry(n_servers, n_files, cache_size)
    if cache_size == n_files:
        return _full_replication(n_servers, n_files)

    draw = _cache_sampler(list(profile.probs), cache_size, rng)
    caches = [set(draw()) for _ in range(n_servers)]

    replicas = list(map(Counter(chain.from_iterable(caches)).__getitem__, range(n_files)))
    for missing in range(n_files):
        if replicas[missing]:
            continue
        # Most-replicated file; ties go to the lowest file index.
        donor = replicas.index(max(replicas))
        holder = next(k for k in range(n_servers) if donor in caches[k])
        caches[holder].discard(donor)
        caches[holder].add(missing)
        replicas[donor] -= 1
        replicas[missing] += 1

    return CacheAllocation(caches, n_files)


class CandidateTable(list):
    """The servers holding each file, as ascending tuples indexed by file,
    with the memo slots that bind_strategy and queue_index read.

    Files with equal tuples share a slot: slot[f] numbers file f's tuple
    among the distinct tuples in order of first appearance, n_slots counts
    them, and full is the slot of the tuple holding every one of the
    n_servers servers, or -1. A table is shared by every run on equal
    allocations and must not be changed.
    """

    def __init__(self, table, n_servers: int) -> None:
        slot_of: dict[tuple[int, ...], int] = {}
        self.slot = [slot_of.setdefault(c, len(slot_of)) for c in map(tuple, table)]
        # Files with equal tuples share the first one, which slot_of keeps.
        distinct = list(slot_of)
        super().__init__(map(distinct.__getitem__, self.slot))
        self.n_slots = len(distinct)
        self.full = slot_of.get(tuple(range(n_servers)), -1)


@lru_cache(maxsize=1)
def candidate_table(allocation: CacheAllocation) -> CandidateTable:
    """Servers holding each file, ascending, indexed by file; runs on one
    allocation, or on equal copies of it, share one table."""
    lists: list[list[int]] = [[] for _ in range(allocation.n_files)]
    for k, cache in enumerate(allocation.server_files):
        for f in cache:
            lists[f].append(k)
    return CandidateTable(lists, allocation.n_servers)
