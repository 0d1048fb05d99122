"""Cluster-shared extraction result cache (reference parity: the Redis
TTL cache, services/cache/cache_service.py:37-99).

The reference caches scrape results in a Redis shared across worker
processes, keyed ``sha256(url | options)`` with a TTL. The engine's
batch equivalents are (a) resumable partitioned outputs and (b) the
per-worker LRU in ``PageExtractor`` (round 4). This module adds the
remaining half: a CROSS-WORKER shared cache, as a Ray actor — the
documented case where the Dataset API can't express the semantics
(one shared mutable map) and a raw actor is the right Ray tool.

Design for the extraction hot path (task workers reused across calls,
one ``PageExtractor`` per worker per call):
- ONE ``get_batch`` RPC per map_batches batch (only for keys that miss
  the worker's local L1 LRU), one fire-and-forget ``put_batch`` — the
  actor is never chatted with per row.
- LRU-bounded entries + optional TTL (wall-clock staleness bound, like
  the reference; a cache never changes extraction RESULTS, only
  hit/miss, so determinism of outputs is unaffected).
- On a multi-node cluster this is one actor (or a few, key-sharded by
  the caller) reachable from every worker — exactly the Redis role.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Optional

import ray


class SharedExtractCacheLocal:
    """Plain-Python core (actor-wrapped below; kept actor-free so unit
    tests can drive it directly)."""

    def __init__(self, max_entries: int = 100_000,
                 ttl_seconds: Optional[float] = None) -> None:
        self.max_entries = max_entries
        self.ttl = ttl_seconds
        self._store: "OrderedDict[bytes, tuple[float, dict]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_batch(self, keys: list[bytes]) -> list[Optional[dict]]:
        now = time.monotonic()
        out: list[Optional[dict]] = []
        for k in keys:
            ent = self._store.get(k)
            if ent is None:
                self.misses += 1
                out.append(None)
                continue
            ts, val = ent
            if self.ttl is not None and now - ts > self.ttl:
                del self._store[k]  # expired — drop eagerly
                self.misses += 1
                out.append(None)
                continue
            self._store.move_to_end(k)
            self.hits += 1
            out.append(val)
        return out

    def put_batch(self, keys: list[bytes], values: list[dict]) -> int:
        now = time.monotonic()
        for k, v in zip(keys, values):
            self._store[k] = (now, v)
            self._store.move_to_end(k)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self.evictions += 1
        return len(self._store)

    def stats(self) -> dict:
        return {"entries": len(self._store), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}

    def ping(self) -> bool:
        return True


# The Ray actor: one per cluster (or key-sharded by the caller).
SharedExtractCache = ray.remote(SharedExtractCacheLocal)
