"""Sharded URL frontier actors (north_star core).

Each ``FrontierShard`` owns the hosts with ``host_shard(host, S) == shard_id``
and holds the only cross-task mutable state in the system (SURVEY.md ST3-ST6):

- the URL-seen set — a cuckoo filter over 20-byte SHA-1 keys of canonical
  URLs (``ExactShadow`` mode pairs it with an exact set at test scale so
  conformance checks are exact while proving no-false-negatives);
- a priority queue keyed ``(priority, seq)``. Default priority is the
  BFS depth — pop order (depth, seq), exactly the reference's FIFO
  asyncio.Queue (queue_manager.py:26,54,79, with seq = the global
  admission sequence). A custom ``priority_fn(url) -> int`` turns the
  crawl best-first (score-ordered frontier — e.g. PageRank-derived
  host scores) while keeping admission/seen semantics identical;
- per-host politeness token buckets (rate = pops/host/wave, refilled in
  virtual wave time so runs are deterministic; the reference's global
  ``rate_limit_delay = 0.0`` corresponds to rate=∞, queue_manager.py:30);
- a per-host robots.txt cache (reference loads only the *seed* host's rules,
  link_extractor.py:30-46 — ``seed_host_only`` reproduces that quirk).

Two-phase admission keeps the global admission order deterministic under
sharding: the driver sends candidates (with dense ranks in (parent_seq,
document-position) order) to ``check_batch`` — a pure membership + robots
probe — then assigns global seqs to the accepted ranks and confirms with
``insert_batch``. Dedup of duplicate candidates *within* a batch is
first-rank-wins, matching the serialized reference admission
(queue_manager.py:46-57).

In ``crawl()`` a non-empty wave costs each shard two calls: ``check_batch``
(only shards that got candidates) and ``advance``, which inserts the
admitted items, captures the wave-boundary snapshot and stats, pops the
next wave and then peeks the wave after it, in that order. ``push_back``
follows only when the merged pops overflow the wave budget.

The peek (``peek_batch``) is ``pop_batch`` run on copies of the queue and
the politeness buckets: what the wave after next would pop if the next
wave admitted nothing. In BFS order a wave's children mostly sort after
the urls already queued, so on most waves the peek is exactly the start
of the true pops, and the driver fetches and extracts those pages while
it admits the current wave. The peek never changes the frontier: pops, seqs, admissions
and snapshots come from ``advance`` alone, and a wrong peek only costs
the extraction of pages that are then not popped.
"""

from __future__ import annotations

import heapq
import math
import pickle
from typing import Optional

import ray

from .cuckoo import CuckooFilter, ExactShadow
from .robots import RobotsCache


class FrontierShardLocal:
    """Plain-Python shard logic (actor-wrapped below; kept actor-free so unit
    tests and the conformance oracle can drive it directly)."""

    def __init__(
        self,
        shard_id: int,
        capacity: int = 1 << 16,
        exact_shadow: bool = True,
        politeness_rate: float = math.inf,
        politeness_burst: float = math.inf,
        seed_host_only: bool = False,
        seed_host: Optional[str] = None,
        respect_robots: bool = True,
        wave_seconds: float = 1.0,
        priority_fn=None,
    ) -> None:
        self.shard_id = shard_id
        self.seen = ExactShadow(capacity) if exact_shadow else CuckooFilter(capacity)
        # (priority, seq, depth, url, host, parent); priority defaults to
        # depth, which makes the pop order exactly the former (depth, seq)
        self.priority_fn = priority_fn
        self.heap: list[tuple[int, int, int, str, str, Optional[str]]] = []
        self.robots = RobotsCache(seed_host_only=seed_host_only, seed_host=seed_host)
        self.respect_robots = respect_robots
        self.rate = politeness_rate
        self.burst = politeness_burst if politeness_burst != math.inf else politeness_rate
        self.wave_seconds = wave_seconds
        self.tokens: dict[str, float] = {}
        self.last_wave: dict[str, int] = {}
        # per-host rate overrides derived from robots Crawl-delay directives
        self.host_rate: dict[str, float] = {}
        # lineage counters (Prometheus-style, harvested by the driver)
        self.n_offered = 0
        self.n_admitted = 0
        self.n_dup = 0
        self.n_robots_blocked = 0
        self.n_popped = 0
        self.n_insert_dup = 0
        # keys admitted since the last snapshot/snapshot_delta — the
        # incremental-checkpoint payload (VERDICT r4 item 5: full
        # filter-byte snapshots made checkpoint the dominant added cost
        # at high shard counts; a delta is ∝ the wave's admissions)
        self._delta_keys: list[bytes] = []

    def reset(self, *args, **kwargs) -> bool:
        """Reinitialize in place — lets a pooled shard actor be reused
        across crawl() calls (skipping actor spawn + import) with exactly
        fresh-constructed state. One crawl at a time per pool, the same
        contract as the reference's global browser pool."""
        self.__init__(*args, **kwargs)
        return True

    def ping(self) -> bool:
        return True

    # -- robots -----------------------------------------------------------
    def load_robots(self, bodies: dict[str, Optional[str]]) -> None:
        for host, body in bodies.items():
            self.robots.load(host, body)
            delay = self.robots.crawl_delay(host)
            if delay is not None and delay > 0:
                # Crawl-delay of d seconds → wave_seconds/d pops per wave,
                # never exceeding the globally configured politeness rate
                self.host_rate[host] = min(self.rate, self.wave_seconds / delay)

    # -- admission (two-phase) --------------------------------------------
    def check_batch(
        self, cands: list[tuple[int, bytes, str, str]]
    ) -> list[tuple[int, bool]]:
        """cands: (rank, url_key, url, host) in rank order. Returns
        (rank, admissible) — batch-local duplicates are first-rank-wins.
        Does NOT mutate the seen set (the driver may cap admissions)."""
        out = []
        batch_seen: set[bytes] = set()
        for rank, key, url, host in cands:
            self.n_offered += 1
            if key in batch_seen or self.seen.contains(key):
                self.n_dup += 1
                out.append((rank, False))
                continue
            if self.respect_robots and not self.robots.is_allowed(url):
                self.n_robots_blocked += 1
                out.append((rank, False))
                continue
            batch_seen.add(key)
            out.append((rank, True))
        return out

    def insert_batch(
        self, items: list[tuple[int, int, str, str, Optional[str], bytes]]
    ) -> int:
        """items: (seq, depth, url, host, parent_url, url_key).

        CONTRACT (enforced): the driver issues exactly ONE ``check_batch``
        round per shard per wave and inserts only keys that round admitted,
        so no key offered here can already be in the seen set. ``add`` on
        the raw cuckoo filter always succeeds (victims go to the stash; see
        cuckoo.py) — the only False return is ExactShadow's exact-duplicate
        signal, which under the contract means a caller admitted the same
        URL twice (two seqs → the page would be crawled twice). That is a
        driver bug, not a recoverable state, so it raises (ADVICE r2)
        instead of silently double-queueing."""
        n = 0
        for seq, depth, url, host, parent, key in items:
            if not self.seen.add(key):
                self.n_insert_dup += 1
                raise RuntimeError(
                    f"insert_batch: url already in seen set ({url!r}, "
                    f"seq={seq}) — caller violated the one-check_batch-"
                    f"per-wave admission contract")
            prio = self.priority_fn(url) if self.priority_fn else depth
            heapq.heappush(self.heap, (prio, seq, depth, url, host, parent))
            self._delta_keys.append(key)
            n += 1
        self.n_admitted += n
        return n

    # -- politeness + pop --------------------------------------------------
    def _refill(self, host: str, wave: int) -> float:
        rate = self.host_rate.get(host, self.rate)
        if rate == math.inf:
            return math.inf
        burst = max(1.0, min(self.burst, rate)) if host in self.host_rate \
            else self.burst
        last = self.last_wave.get(host, wave)
        tok = self.tokens.get(host, burst)
        tok = min(burst, tok + rate * (wave - last))
        self.last_wave[host] = wave
        self.tokens[host] = tok
        return tok

    def pop_batch(
        self, wave: int, budget: int
    ) -> list[tuple[int, int, int, str, Optional[str]]]:
        """Pop ≤budget URLs in (priority, seq) order whose host has
        politeness tokens this wave. Skipped (throttled) URLs stay queued.
        Returns (priority, seq, depth, url, parent) — the first two fields
        are the global merge key the driver sorts on."""
        popped: list[tuple[int, int, int, str, Optional[str]]] = []
        held: list[tuple[int, int, int, str, str, Optional[str]]] = []
        while self.heap and len(popped) < budget:
            prio, seq, depth, url, host, parent = heapq.heappop(self.heap)
            tok = self._refill(host, wave)
            if tok >= 1.0:
                if tok != math.inf:
                    self.tokens[host] = tok - 1.0
                popped.append((prio, seq, depth, url, parent))
            else:
                held.append((prio, seq, depth, url, host, parent))
        for item in held:
            heapq.heappush(self.heap, item)
        self.n_popped += len(popped)
        return popped

    def peek_batch(
        self, wave: int, budget: int
    ) -> list[tuple[int, int, int, str, Optional[str]]]:
        """What ``pop_batch(wave, budget)`` would return now, leaving the
        shard as it was: the pop runs on shallow copies of the queue and
        the politeness buckets, and the pop counter is restored."""
        saved = self.heap, self.tokens, self.last_wave, self.n_popped
        self.heap, self.tokens, self.last_wave = (
            list(self.heap), dict(self.tokens), dict(self.last_wave))
        try:
            return self.pop_batch(wave, budget)
        finally:
            self.heap, self.tokens, self.last_wave, self.n_popped = saved

    def push_back(self, items: list[tuple[int, int, int, str, Optional[str]]]) -> None:
        """Return surplus pops (truncated by the global wave budget) to the
        queue, refunding their politeness tokens."""
        from .urlnorm import host_of

        for prio, seq, depth, url, parent in items:
            host = host_of(url)
            heapq.heappush(self.heap, (prio, seq, depth, url, host, parent))
            if self.rate != math.inf or host in self.host_rate:
                self.tokens[host] = min(max(1.0, self.burst if self.burst != math.inf else 1.0),
                                        self.tokens.get(host, 0.0) + 1.0)
        self.n_popped -= len(items)

    @ray.method(num_returns=4)
    def advance(
        self, items: list[tuple[int, int, str, str, Optional[str], bytes]],
        full: bool, wave: int, budget: int, ahead: int = 0,
    ) -> tuple[list[tuple[int, int, int, str, Optional[str]]], bytes, dict,
               list[tuple[int, int, int, str, Optional[str]]]]:
        """One wave boundary in one call: ``insert_batch(items)``, then
        ``snapshot()`` when ``full`` else ``snapshot_delta()``, then
        ``stats()``, then ``pop_batch(wave, budget)``, then
        ``peek_batch(wave + 1, ahead)``. Returns (pops, snapshot blob,
        stats, peek) as four object refs, so the driver can wait on the
        pops and the peek alone and hand the checkpoint parts to its IO
        thread. An insert-contract violation raises before anything else
        runs, and all four refs carry the error."""
        self.insert_batch(items)
        blob = self.snapshot() if full else self.snapshot_delta()
        stats = self.stats()
        pops = self.pop_batch(wave, budget)
        return pops, blob, stats, self.peek_batch(wave + 1, ahead)

    def queue_size(self) -> int:
        return len(self.heap)

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "offered": self.n_offered,
            "admitted": self.n_admitted,
            "dup_hits": self.n_dup,
            "robots_blocked": self.n_robots_blocked,
            "popped": self.n_popped,
            "insert_dups": self.n_insert_dup,
            "queued": len(self.heap),
            "seen": getattr(self.seen, "count", None)
            if not isinstance(self.seen, ExactShadow)
            else len(self.seen.exact),
            "filter_false_positives": getattr(self.seen, "false_positives", 0),
            # victim-stash pressure (cuckoo near design load): entries that
            # exhausted their eviction chain and live in the bounded stash
            "stash_size": len(getattr(
                getattr(self.seen, "filter", self.seen), "stash", [])),
        }

    # -- checkpoint ---------------------------------------------------------
    def snapshot(self) -> bytes:
        state = {
            "shard_id": self.shard_id,
            "seen": self.seen.serialize(),
            "seen_kind": "shadow" if isinstance(self.seen, ExactShadow) else "cuckoo",
            "heap": self.heap,
            "tokens": self.tokens,
            "last_wave": self.last_wave,
            "rate": self.rate,
            "burst": self.burst,
            "host_rate": self.host_rate,
            "wave_seconds": self.wave_seconds,
            "counters": (self.n_offered, self.n_admitted, self.n_dup,
                         self.n_robots_blocked, self.n_popped),
        }
        # a full snapshot is a new delta base — keys admitted before it
        # are inside the serialized filter and must not be replayed
        self._delta_keys = []
        return pickle.dumps(state)

    def snapshot_delta(self) -> bytes:
        """Incremental checkpoint: the keys admitted since the previous
        snapshot/snapshot_delta plus the (small) live mutable state —
        queue, politeness buckets, counters. The seen-filter bytes
        (∝ capacity, the full snapshot's dominant cost) are NOT included;
        restore = restore(full base) + apply_delta(chain in order).
        Each admitted key appears in exactly one delta (cleared at
        capture), and the driver submits snapshot tasks at the wave
        boundary — before the next wave's pops/inserts — so a delta
        covers exactly one wave's admissions."""
        state = {
            "new_keys": self._delta_keys,
            "heap": self.heap,
            "tokens": self.tokens,
            "last_wave": self.last_wave,
            "host_rate": self.host_rate,
            "counters": (self.n_offered, self.n_admitted, self.n_dup,
                         self.n_robots_blocked, self.n_popped),
        }
        self._delta_keys = []
        return pickle.dumps(state)

    def apply_delta(self, blob: bytes) -> None:
        """Replay one snapshot_delta on top of a restored full snapshot
        (or a previous delta): re-add the wave's admitted keys to the
        seen filter and adopt the delta's live state wholesale."""
        state = pickle.loads(blob)
        for key in state["new_keys"]:
            self.seen.add(key)
        self.heap = [tuple(x) for x in state["heap"]]
        heapq.heapify(self.heap)
        self.tokens = state["tokens"]
        self.last_wave = state["last_wave"]
        self.host_rate = state["host_rate"]
        (self.n_offered, self.n_admitted, self.n_dup,
         self.n_robots_blocked, self.n_popped) = state["counters"]
        self._delta_keys = []

    def restore(self, blob: bytes) -> None:
        state = pickle.loads(blob)
        self.shard_id = state["shard_id"]
        if state["seen_kind"] == "shadow":
            self.seen = ExactShadow.deserialize(state["seen"])
        else:
            self.seen = CuckooFilter.deserialize(state["seen"])
        self.heap = [tuple(x) for x in state["heap"]]
        heapq.heapify(self.heap)
        self.tokens = state["tokens"]
        self.last_wave = state["last_wave"]
        self.rate = state["rate"]
        self.burst = state["burst"]
        self.host_rate = state.get("host_rate", {})
        self.wave_seconds = state.get("wave_seconds", 1.0)
        (self.n_offered, self.n_admitted, self.n_dup,
         self.n_robots_blocked, self.n_popped) = state["counters"]
        self._delta_keys = []


# The Ray actor: one per shard, long-lived across waves (SURVEY.md §7.4).
FrontierShard = ray.remote(FrontierShardLocal)
