"""A thread-safe LRU cache of prepared solve plans.

This is the amortization engine of the serving layer: the first request
for a matrix pays the paper's Table 5 preprocessing cost, every later
request reuses the plan for the cost of a hash lookup.  Capacity is
bounded (plans hold the blocked matrix, so memory is real even in the
simulation); least-recently-used plans are evicted and counted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

__all__ = ["CacheStats", "PlanCache"]

#: distinguishes "key absent" from a cached value that happens to be
#: falsy (None/False/0) — ``get_or_build`` must never rebuild those
_MISS = object()


@dataclass(frozen=True)
class CacheStats:
    """Counters snapshot; ``hits``/``misses`` count lookups, not requests
    (a coalesced batch of k same-matrix requests is one lookup, and the
    values groups of one ``solve_batch`` bucket share one lookup)."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """LRU mapping from :func:`plan_key` tuples to prepared plans.

    ``get_or_build`` is single-flight per key: concurrent misses on the
    same matrix build the plan once while other keys proceed in
    parallel.  Building happens outside the cache-wide lock so a slow
    preprocessing never blocks unrelated lookups.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        #: key -> [lock, waiter refcount]; the refcount keeps the lock
        #: entry alive while *any* thread holds or waits on it, so every
        #: concurrent miss for a key serializes on one lock object
        self._key_locks: dict[Hashable, list] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Any | None:
        """The cached value (refreshing recency) or ``None``; counts."""
        value = self._lookup(key)
        return None if value is _MISS else value

    def _lookup(self, key: Hashable) -> Any:
        """Like :meth:`get` but returns ``_MISS`` on absence, so callers
        can tell a cached falsy value apart from a miss."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._put_locked(key, value)

    def _put_locked(self, key: Hashable, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def get_or_build(
        self, key: Hashable, builder: Callable[..., Any], *args
    ) -> tuple[Any, bool]:
        """``(value, was_hit)``; ``builder(*args)`` runs at most once per
        miss (the arguments let a caller pass a bound method rather than
        build a closure on every lookup)."""
        value = self._lookup(key)
        if value is not _MISS:
            return value, True
        with self._lock:
            slot = self._key_locks.setdefault(key, [threading.Lock(), 0])
            # Refcount while held/waited on: popping the entry while
            # other threads still wait on (or are about to acquire) the
            # lock would hand later arrivals a *fresh* lock, letting two
            # threads build the same key concurrently after a failing or
            # slow builder.  The last thread out removes the entry, so
            # repeated failing keys still don't leak.
            slot[1] += 1
            key_lock = slot[0]
        try:
            with key_lock:
                # Double-check: another thread may have built it while we
                # waited.  Its get() above already counted a miss, so
                # reclassify the lookup as the hit it turned out to be.
                with self._lock:
                    if key in self._entries:
                        self._entries.move_to_end(key)
                        self._hits += 1
                        self._misses -= 1
                        return self._entries[key], True
                value = builder(*args)
                with self._lock:
                    self._put_locked(key, value)
                return value, False
        finally:
            with self._lock:
                slot[1] -= 1
                if slot[1] == 0 and self._key_locks.get(key) is slot:
                    del self._key_locks[key]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )
