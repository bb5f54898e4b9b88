"""One bounded LRU for every process-wide cache.

Models and kernels (:mod:`repro.batch.planner`), RR/RRL schedules
(:mod:`repro.core.schedule_cache`), Fox–Glynn windows and Poisson tails
(:mod:`repro.batch.kernel`) each live in a named :class:`BoundedCache`
registered here, so :func:`cache_stats` reports them all and
:func:`clear_caches` empties them all. The registry is per process: a
pool worker has its own. Unregistered instances (a test's private
``ScheduleCache``) stay out of it. One process solves one cell at a
time, so nothing locks.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any, TypeVar

__all__ = ["BoundedCache", "shared_cache", "cache_stats", "clear_caches"]

_C = TypeVar("_C", bound="BoundedCache")


class BoundedCache:
    """At most ``max_entries`` values; the least recently used goes first."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._max_entries = int(max_entries)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable, build: Callable[[], Any]) -> tuple[Any, bool]:
        """``(value, was_hit)``: the cached value, or ``build()`` stored.

        A ``build`` that raises stores nothing and still counts one miss.
        """
        if key in self._entries:
            self._hits += 1
            self._entries.move_to_end(key)
            return self._entries[key], True
        self._misses += 1
        value = self._entries[key] = build()
        if len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
        return value, False

    def info(self) -> dict[str, int]:
        """Hit, miss, size and capacity counts."""
        return {"hits": self._hits, "misses": self._misses,
                "size": len(self._entries), "max_size": self._max_entries}

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)


_REGISTRY: dict[str, BoundedCache] = {}


def shared_cache(name: str, cache: _C) -> _C:
    """Register ``cache`` as this process's cache called ``name``."""
    if name in _REGISTRY:
        raise ValueError(f"a cache named {name!r} is already registered")
    _REGISTRY[name] = cache
    return cache


def cache_stats() -> dict[str, dict[str, int]]:
    """``{name: info}`` of every registered cache in this process."""
    return {name: cache.info() for name, cache in _REGISTRY.items()}


def clear_caches() -> None:
    """Empty every registered cache and reset its counters."""
    for cache in _REGISTRY.values():
        cache.clear()
