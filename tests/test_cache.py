"""``repro.cache``: the one bounded LRU behind every process-wide cache."""

import pytest

import repro
from repro.cache import BoundedCache, cache_stats, clear_caches, shared_cache
from repro.core.schedule_cache import ScheduleCache


def _builder(value, calls):
    def build():
        calls.append(value)
        return value
    return build


class TestBoundedCache:
    def test_evicts_least_recently_used_at_capacity(self):
        cache = BoundedCache(2)
        calls = []
        cache.get("a", _builder(1, calls))
        cache.get("b", _builder(2, calls))
        assert cache.get("a", _builder(-1, calls)) == (1, True)  # a is newest
        cache.get("c", _builder(3, calls))  # evicts b, not a
        assert len(cache) == 2
        assert cache.get("a", _builder(-1, calls)) == (1, True)
        assert cache.get("b", _builder(4, calls)) == (4, False)  # rebuilt
        assert calls == [1, 2, 3, 4]

    def test_hit_and_miss_counts(self):
        cache = BoundedCache(4)
        value, hit = cache.get(("k", 1.0), lambda: [1, 2])
        assert hit is False
        again, hit = cache.get(("k", 1.0), lambda: [9])
        assert hit is True and again is value  # the same stored object
        cache.get(("k", 2.0), lambda: [3])
        assert cache.info() == {"hits": 1, "misses": 2, "size": 2,
                                "max_size": 4}

    def test_raising_build_stores_nothing_and_counts_a_miss(self):
        cache = BoundedCache(2)

        def boom():
            raise ArithmeticError("no value")

        with pytest.raises(ArithmeticError):
            cache.get("k", boom)
        assert len(cache) == 0
        assert cache.info()["misses"] == 1
        assert cache.get("k", lambda: 7) == (7, False)
        assert cache.info()["misses"] == 2

    def test_clear_resets_entries_and_counters(self):
        cache = BoundedCache(3)
        cache.get(1, lambda: "x")
        cache.get(1, lambda: "y")
        cache.clear()
        assert cache.info() == {"hits": 0, "misses": 0, "size": 0,
                                "max_size": 3}
        assert cache.get(1, lambda: "z") == ("z", False)

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            BoundedCache(0)


class TestRegistry:
    def test_process_caches_are_registered(self):
        assert set(cache_stats()) == {"models", "schedules", "fox_glynn",
                                      "poisson_tail"}
        assert repro.cache_stats is cache_stats
        assert repro.clear_caches is clear_caches

    def test_private_instances_stay_out(self):
        before = set(cache_stats())
        private = ScheduleCache(max_entries=2)
        private.get("k", lambda: 1)
        BoundedCache(5).get("k", lambda: 1)
        assert set(cache_stats()) == before

    def test_shared_cache_registers_and_clear_caches_empties_it(
            self, monkeypatch):
        monkeypatch.setattr("repro.cache._REGISTRY",
                            dict(repro.cache._REGISTRY))
        cache = shared_cache("probe", BoundedCache(4))
        cache.get("k", lambda: 1)
        cache.get("k", lambda: 1)
        assert cache_stats()["probe"] == {"hits": 1, "misses": 1, "size": 1,
                                          "max_size": 4}
        clear_caches()
        assert cache_stats()["probe"]["size"] == 0
        assert all(info["size"] == 0 and info["hits"] == 0
                   for info in cache_stats().values())

    def test_duplicate_name_is_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.cache._REGISTRY",
                            dict(repro.cache._REGISTRY))
        with pytest.raises(ValueError, match="already registered"):
            shared_cache("models", BoundedCache(1))
