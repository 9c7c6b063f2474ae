"""Host-side hot-label result cache above the device DRAM screener tables.

Extreme-classification traffic is heavily head-skewed: a small set of
label *groups* (related query families hitting the same hot labels) absorbs
most requests.  Each service node therefore keeps a small LRU result cache
keyed by label group: a hit returns a recently computed top-k directly from
host DRAM, skipping admission, the data-node fan-out, and the merge — the
same hierarchy step the paper's DRAM screener table plays inside one
device, lifted to the fleet.

The cache is fully deterministic: LRU order is insertion/touch order on an
``OrderedDict``, expiry is simulated-time TTL, and the per-request group
keys are drawn once, at workload-build time, from the repo's seeded
``default_rng((seed, salt))`` idiom via :func:`zipf_keys`.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..errors import ConfigurationError

#: RNG salt for the request -> label-group key stream (one draw per run).
KEY_STREAM_SALT = 11


def zipf_keys(
    num_requests: int, groups: int, skew: float, seed: int
) -> np.ndarray:
    """Per-request label-group keys under a bounded Zipf(``skew``) law.

    Drawn in one vectorized pass from ``default_rng((seed, salt))`` so the
    key stream is bit-identical per seed and independent of arrival-time
    RNG state.
    """
    if num_requests <= 0:
        raise ConfigurationError("num_requests must be positive")
    if groups <= 0:
        raise ConfigurationError("groups must be positive")
    if skew <= 0:
        raise ConfigurationError("skew must be positive")
    weights = np.arange(1, groups + 1, dtype=np.float64) ** (-skew)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    rng = np.random.default_rng((seed, KEY_STREAM_SALT))
    uniforms = rng.uniform(0.0, 1.0, size=num_requests)
    return np.searchsorted(cdf, uniforms, side="left").astype(np.int64)


class HotLabelCache:
    """Deterministic LRU + sim-time-TTL cache of per-group top-k results.

    ``capacity == 0`` disables the cache (every lookup misses, inserts are
    dropped), which makes a cache-less fleet bit-identical to one built
    without the cache at all.
    """

    def __init__(self, capacity: int, ttl: float) -> None:
        if capacity < 0:
            raise ConfigurationError("cache capacity cannot be negative")
        if ttl < 0:
            raise ConfigurationError("cache ttl cannot be negative")
        self.capacity = capacity
        self.ttl = ttl
        self._entries: "OrderedDict[int, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: int, now: float) -> bool:
        """True (and refresh LRU position) when ``key`` is fresh at ``now``."""
        inserted = self._entries.get(key)
        if inserted is None:
            self.misses += 1
            return False
        if now - inserted > self.ttl:
            # Expired: drop it so it cannot shadow a future insert.
            del self._entries[key]
            self.misses += 1
            return False
        self._entries.move_to_end(key)
        self.hits += 1
        return True

    def insert(self, key: int, now: float) -> None:
        """Record a freshly merged result for ``key`` (evicting LRU)."""
        if self.capacity == 0:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            entries[key] = now
            return
        entries[key] = now
        while len(entries) > self.capacity:
            entries.popitem(last=False)
