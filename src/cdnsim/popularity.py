"""File popularity profiles, popularity-proportional cache placement, and
the candidate servers of each file."""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

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


def _sample_without_replacement(weights: list[float], cache_size: int, rng: Random) -> list[int]:
    # Draw, remove, renormalize: each pick is proportional to the remaining
    # weights. Uniform weights reduce to a plain unweighted sample.
    n = len(weights)
    if cache_size >= n:
        return list(range(n))
    if min(weights) == max(weights):
        return rng.sample(range(n), cache_size)
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


def proportional_placement(
    profile: PopularityProfile, n_servers: int, cache_size: int, rng: Random
) -> CacheAllocation:
    """Fill each server's cache by popularity-weighted sampling without
    replacement, then repair coverage so every file is held somewhere.

    Repair rule: for each uncovered file (ascending), find the file with
    the most replicas network-wide (ties: lowest file index) and overwrite
    one of its copies on the lowest-index server holding it.
    """
    n_files = profile.n_files
    if n_servers * cache_size < n_files:
        raise ConfigError(
            f"{n_servers} servers * cache_size {cache_size} cannot cover {n_files} files"
        )
    if cache_size > n_files:
        raise ConfigError(f"cache_size {cache_size} exceeds n_files {n_files}")

    weights = list(profile.probs)
    caches = [set(_sample_without_replacement(weights, cache_size, rng)) for _ in range(n_servers)]

    replicas = [0] * n_files
    for cache in caches:
        for f in cache:
            replicas[f] += 1

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


def candidate_table(allocation: CacheAllocation) -> list[tuple[int, ...]]:
    """Servers holding each file, ascending, indexed by file; built once per run."""
    table: list[list[int]] = [[] for _ in range(allocation.n_files)]
    for k, cache in enumerate(allocation.server_files):
        for f in cache:
            table[f].append(k)
    return [tuple(servers) for servers in table]
