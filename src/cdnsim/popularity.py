"""File popularity profiles, popularity-proportional cache placement, and
the candidate servers of each file."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from random import Random

from .draws import sample, sample_plan
from .model import CacheAllocation, ConfigError


@dataclass(frozen=True)
class PopularityProfile:
    """Request probabilities over the file library, most popular first."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ConfigError("popularity profile must cover at least one file")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"popularity profile sums to {total}, expected 1")

    @property
    def n_files(self) -> int:
        return len(self.probs)

    def cumulative(self) -> list[float]:
        """Running sums for inverse-transform sampling; last entry forced to 1."""
        cum = []
        acc = 0.0
        for p in self.probs:
            acc += p
            cum.append(acc)
        cum[-1] = 1.0
        return cum


def zipf_profile(n_files: int, beta: float) -> PopularityProfile:
    """Power-law popularity: file rank i gets weight 1 / (i+1)^beta,
    normalized over the whole library. beta = 0 is uniform."""
    if n_files < 1:
        raise ConfigError("n_files must be >= 1")
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    weights = [(i + 1) ** -beta for i in range(n_files)]
    total = sum(weights)
    return PopularityProfile(tuple(w / total for w in weights))


def _cache_sampler(weights: list[float], cache_size: int, rng: Random):
    # A function drawing one server's cache: draw, remove, renormalize, so
    # each pick is proportional to the remaining weights. Uniform weights
    # reduce to Random.sample(range(n), cache_size), drawn by draws.sample.
    n = len(weights)
    if min(weights) == max(weights):
        files = range(n)
        draws, pooled = sample_plan(n, cache_size)
        getrandbits = rng.getrandbits
        return lambda: sample(files, draws, pooled, getrandbits)

    def weighted() -> list[int]:
        live = list(range(n))
        pool = list(weights)
        total = sum(pool)
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
    one of its copies on the lowest-index server holding it.

    When cache_size == n_files every server holds every file and nothing
    is drawn: the result is one shared allocation per (n_servers, n_files),
    so its candidate table is built once per process.
    """
    n_files = profile.n_files
    if n_servers * cache_size < n_files:
        raise ConfigError(
            f"{n_servers} servers * cache_size {cache_size} cannot cover {n_files} files"
        )
    if cache_size > n_files:
        raise ConfigError(f"cache_size {cache_size} exceeds n_files {n_files}")
    if cache_size == n_files:
        return _full_replication(n_servers, n_files)

    draw = _cache_sampler(list(profile.probs), cache_size, rng)
    caches = [set(draw()) for _ in range(n_servers)]

    replicas = Counter(chain.from_iterable(caches))
    for missing in range(n_files):
        if replicas[missing]:
            continue
        # Most-replicated file; ties go to the lowest file index.
        donor = max(range(n_files), key=lambda f: (replicas[f], -f))
        holder = next(k for k in range(n_servers) if donor in caches[k])
        caches[holder].discard(donor)
        caches[holder].add(missing)
        replicas[donor] -= 1
        replicas[missing] += 1

    return CacheAllocation.from_sets(caches, n_files)


class CandidateTable(list):
    """The servers holding each file, as ascending tuples indexed by file,
    with the memo slots that bind_strategy and queue_index read.

    Files with equal tuples share a slot: slot[f] numbers file f's tuple
    among the distinct tuples in order of first appearance, n_slots counts
    them, and full is the slot of the tuple holding every one of the
    n_servers servers, or -1. A table is shared by every run on its
    allocation and must not be changed.
    """

    def __init__(self, table, n_servers: int) -> None:
        slot_of: dict[tuple[int, ...], int] = {}
        self.slot = [slot_of.setdefault(c, len(slot_of)) for c in map(tuple, table)]
        # Files with equal tuples share the first one, which slot_of keeps.
        distinct = list(slot_of)
        super().__init__(map(distinct.__getitem__, self.slot))
        self.n_slots = len(distinct)
        self.full = slot_of.get(tuple(range(n_servers)), -1)


def candidate_table(allocation: CacheAllocation) -> CandidateTable:
    """Servers holding each file, ascending, indexed by file; built on the
    first call for an allocation and kept on it."""
    table = allocation._candidate_table
    if table is None:
        lists: list[list[int]] = [[] for _ in range(allocation.n_files)]
        for k, cache in enumerate(allocation.server_files):
            for f in cache:
                lists[f].append(k)
        table = CandidateTable(lists, allocation.n_servers)
        object.__setattr__(allocation, "_candidate_table", table)
    return table
