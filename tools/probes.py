"""Scale probes and the one runner that runs them.

The sf-sized oracles run at a few thousand rows; the scale claims rest
on these probes instead. Each probe is a function that builds a
synthetic workload at the scale a claim needs (its sizes are keyword
defaults), drives one op family through it, signals failure through
`check` (which, unlike `assert`, still runs under ``python -O``) and
returns its metrics dict.

Usage (from any directory):

    python tools/probes.py [NAME ...]

With no names every probe runs, in registry order. Each probe runs in
its own spawned process, inside one local Ray session with
``os.cpu_count()`` CPUs (``bpe`` and ``cuckoo_sizing`` never touch Ray;
``spill`` opens its own two sessions). One JSON record per probe goes
to stdout — probe, params, git_sha, wall_s (the probe call),
peak_rss_mb (the probe process's ru_maxrss), passed, error, metrics —
and progress to stderr. The exit status is 1 when any probe failed and
2 for an unknown name.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import inspect
import json
import multiprocessing
import os
import resource
import struct
import subprocess
import sys
import tempfile
import time
import traceback

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBES: dict = {}
# the runner starts no Ray session for these: bpe and cuckoo_sizing are
# pure-Python, spill needs a fresh session per object-store size
SESSIONLESS = frozenset({"bpe", "cuckoo_sizing", "spill"})


class ProbeFailed(Exception):
    """A probe's correctness check did not hold."""


def check(cond, msg: str) -> None:
    """Raise ProbeFailed(msg) unless ``cond``."""
    if not cond:
        raise ProbeFailed(msg)


def check_frame(got, want, msg: str) -> None:
    """`check` for DataFrames: equal values, dtypes may differ."""
    import pandas as pd

    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    except AssertionError as e:
        raise ProbeFailed(f"{msg}: {e}") from None


def probe(fn):
    """Register ``fn`` under its name."""
    PROBES[fn.__name__] = fn
    return fn


@contextlib.contextmanager
def ray_session(num_cpus: int | None = None,
                object_store_memory: int | None = None):
    """A fresh local Ray session (default: one CPU per core, default
    object store), progress bars off, shut down on exit."""
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=num_cpus or os.cpu_count(),
             object_store_memory=object_store_memory,
             include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        yield
    finally:
        ray.shutdown()


def _cpus() -> int:
    """CPUs of the live Ray session."""
    import ray

    return int(ray.cluster_resources()["CPU"])


@contextlib.contextmanager
def _placement(name: str):
    """Force the graph engine's placement ("broadcast" or "shuffle")
    through its node-count threshold, restored on exit."""
    from raycrawl.ops import graph as G

    saved = G._AUTO_BROADCAST_NODES
    G._AUTO_BROADCAST_NODES = sys.maxsize if name == "broadcast" else -1
    try:
        yield
    finally:
        G._AUTO_BROADCAST_NODES = saved


def _wide_steps(log: list) -> dict:
    """A probe's exchange records (`agg.placement_log`): every wide step
    with its placement, keyed bytes and partitions, plus the placement
    and measured bytes of its largest keyed table (None and 0 when no
    step ran, e.g. exact embedding dedup or a broadcast-placed graph)."""
    top = max(log, key=lambda r: r["keyed_bytes"],
              default={"placement": None, "keyed_bytes": 0})
    return {"placement": top["placement"],
            "keyed_bytes": top["keyed_bytes"], "wide_steps": log}


# --- probes -----------------------------------------------------------------


@probe
def bfs(nodes=500_000, edges=3_000_000, max_depth=8):
    """Multi-source BFS at shuffle scale (default 500k nodes / 3M edges).

    Drives `bfs_distance` over a random directed graph under BOTH
    placements — broadcast (driver-held distance vector) and shuffle (the
    state stays a Dataset; each level joins only the frontier's messages)
    — checking each equals a serial BFS exactly, and reporting per-
    placement wall time.
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.graph import bfs_distance

    n, m = nodes, edges
    rng = np.random.default_rng(42)
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    edges_ds = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    node_ids = np.arange(n, dtype=np.int64)
    seeds = node_ids[node_ids % 10_007 == 1]

    adj = collections.defaultdict(list)
    for s, d in zip(src.tolist(), dst.tolist()):
        adj[s].append(d)
    t0 = time.time()
    dist = {int(s): 0 for s in seeds}
    q = collections.deque(dist)
    while q:
        u = q.popleft()
        if dist[u] >= max_depth:
            continue
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    serial_sec = time.time() - t0
    want = (pd.DataFrame(sorted(dist.items()), columns=["node", "dist"])
            .astype("int64"))

    report = {"nodes": n, "edges": m, "seeds": len(seeds),
              "reached": len(want),
              "serial_sec": round(serial_sec, 1)}
    for placement in ("broadcast", "shuffle"):
        t0 = time.time()
        with _placement(placement), placement_log() as log:
            got = bfs_distance(edges_ds, node_ids, seeds,
                               max_depth=max_depth)
        sec = time.time() - t0
        got = got.astype("int64").reset_index(drop=True)
        check(got.equals(want), f"{placement} mismatch")
        report[f"{placement}_sec"] = round(sec, 1)
        report[f"{placement}_edges_per_sec"] = round(m / sec)
    return {**report, **_wide_steps(log)}


@probe
def bpe(types=100_000, merges=5_000):
    """BPE trainer scale probe: 100k word types, deep merge counts.

    The naive full-recount trainer costs ~400 ms/merge at 100k types
    (O(types × merges) — a 32k-merge GPT-2-class vocab would take hours);
    `bpe_train_incremental` maintains pair-count deltas over only the words
    each merge touches, with a lazy selection heap. This probe:

      1. checks the incremental trainer's merge sequence EQUALS the
         reference trainer's on the same 100k-type table (20-merge prefix —
         the reference is the slow part),
      2. times the incremental trainer to 5,000 merges and checks it stays
         under 2 min (measured ~20 s, amortized ~4 ms/merge),
      3. sanity-checks the learned vocabulary compresses: total tokens under
         the trained merges < total chars+eow tokens at 0 merges.
    """
    import numpy as np

    from raycrawl.ops.bpe import (bpe_train_from_word_counts,
                                  bpe_train_incremental, _apply_merges)

    rng = np.random.RandomState(0)
    alpha = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    words: dict[str, int] = {}
    while len(words) < types:
        ln = rng.randint(5, 13)
        w = bytes(alpha[rng.randint(0, 26, ln)]).decode()
        if w not in words:
            words[w] = int(1 + types / (1 + len(words)))  # zipf-ish

    t0 = time.time()
    ref = bpe_train_from_word_counts(dict(words), 20)
    t_ref = time.time() - t0
    t0 = time.time()
    fast20 = bpe_train_incremental(dict(words), 20)
    check(fast20 == ref, "incremental trainer diverged from reference")
    t_fast20 = time.time() - t0

    t0 = time.time()
    learned = bpe_train_incremental(dict(words), merges)
    t_deep = time.time() - t0
    check(t_deep < 120, f"{t_deep:.0f}s for {merges} merges — regressed")

    ranks = {p: i for i, p in enumerate(learned)}
    sample = list(words)[:2000]
    base = sum((len(w) + 1) * words[w] for w in sample)
    toks = sum(len(_apply_merges(w, ranks)) * words[w] for w in sample)
    check(toks < base, f"merges do not compress: {toks} >= {base} tokens")

    return {
        "types": len(words),
        "ref_20_merges_sec": round(t_ref, 2),
        "incremental_20_merges_sec": round(t_fast20, 2),
        "incremental_deep_merges": len(learned),
        "incremental_deep_sec": round(t_deep, 1),
        "ms_per_merge_amortized": round(
            t_deep / max(1, len(learned)) * 1000, 2),
        "sample_compression": round(toks / base, 4)}


@probe
def commonness(docs=500_000, toks_per_doc=22, top_k=100_000):
    """Commonness-vocab boundedness probe (round-3 verdict item #1).

    `unigram_commonness` / `bigram_commonness` pass-1 used to pull the FULL
    corpus vocabulary to the driver (`.to_pandas()` → dict → `ray.put`) — at
    web scale the bigram table is ~O(corpus tokens), a driver OOM. The fix
    (`textstats._bounded_topk_vocab`) routes the partials through
    `agg.exchange` with per-partition exact top-K truncation, truncates
    every output block and folds the blocks through the same truncation,
    so the driver holds O(top_k) rows and broadcasts ≤ top_k entries.

    This probe drives a corpus with ≥10M DISTINCT bigrams (every bigram
    unique: each doc is a run of globally-unique tokens) through
    `bigram_commonness` with a small cap (top_k=100k) and checks:
      1. the run completes with correct per-doc row counts and exact
         n_bigrams (which is cap-independent — it counts doc bigrams, not
         vocab hits),
      2. driver RSS growth over the run stays bounded by the
         O(top_k) candidate fold (measured: ~620 MB for a
         32 × 100k merge, vs the multi-GB 10.5M-entry dict + full-vocab
         pandas concat of the unbounded path — and crucially the bound is
         independent of corpus size),
      3. capped semantics hold: evicted bigrams score 0 (sum_bg_freq counts
         only retained grams).
    """
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.textstats import bigram_commonness

    def rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n, tpd = docs, toks_per_doc
    n_bigrams_total = n * (tpd - 1)  # all globally unique → all distinct
    print(f"docs={n} toks/doc={tpd} distinct_bigrams={n_bigrams_total:,} "
          f"top_k={top_k}", file=sys.stderr, flush=True)

    # Generate in shards so the GENERATOR is not the memory hog: each doc
    # i is tokens [i*tpd, (i+1)*tpd) → every adjacent bigram is unique.
    def gen_shard(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy()
        texts = [" ".join(f"t{j}" for j in range(i * tpd, (i + 1) * tpd))
                 for i in ids]
        return pd.DataFrame({"doc_id": ids, "text": texts})

    base = rd.range(n).map_batches(
        lambda b: pd.DataFrame({"doc_id": b["id"].astype("int64")}),
        batch_format="pandas")
    docs_ds = base.map_batches(gen_shard, batch_format="pandas",
                               batch_size=8192)

    rss0 = rss_mb()
    t0 = time.time()
    with placement_log() as log:
        out = bigram_commonness(docs_ds, vocab_top_k=top_k)
    # driver fold: counts only — no full materialization
    rows = 0
    sum_nbg = 0
    sum_freq = 0
    for b in out.iter_batches(batch_size=None, batch_format="pandas"):
        rows += len(b)
        sum_nbg += int(b["n_bigrams"].sum())
        sum_freq += int(b["sum_bg_freq"].sum())
    wall = time.time() - t0
    rss1 = rss_mb()
    grew = rss1 - rss0

    check(rows == n, f"{rows} rows out, {n} docs in")
    check(sum_nbg == n_bigrams_total,
          f"sum n_bigrams {sum_nbg} != {n_bigrams_total}")
    # every distinct bigram occurs once; only the top_k retained ones
    # contribute (freq 1 each) — eviction ties broken deterministically
    check(sum_freq == min(top_k, n_bigrams_total),
          f"sum_bg_freq {sum_freq} != min(top_k, distinct bigrams)")
    # the unbounded path held the full 10.5M-key dict (+ concat frames)
    # on the driver; the bounded path's driver additions must stay small
    check(grew < 1200, f"driver RSS grew {grew:.0f} MB — not bounded")

    return {
        "docs": n, "distinct_bigrams": n_bigrams_total,
        "vocab_top_k": top_k, "rows_out": rows,
        "sum_n_bigrams": sum_nbg, "sum_bg_freq": sum_freq,
        "driver_rss_before_mb": round(rss0, 1),
        "driver_rss_after_mb": round(rss1, 1),
        "driver_rss_growth_mb": round(grew, 1),
        "wall_sec": round(wall, 2), **_wide_steps(log)}


@probe
def containment(docs=100_000):
    """Set-containment join at scale (default 100k docs).

    Drives `containment_pairs` over synthetic 40-token docs with planted
    excerpt pairs (a doc quoting ≥90% of another's shingles) through the
    full asymmetric-prefix-filter path and checks EVERY planted pair is
    recovered — the smaller-prefix × larger-full-list blocking is complete
    for the threshold, so recall must be exactly 1.0 — plus an exact
    containment re-verification of a sample of returned pairs.
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.dedup import containment, containment_pairs

    n, threshold = docs, 0.8
    rng = np.random.RandomState(7)
    texts = []
    planted = set()
    for i in range(n):
        if i % 100 == 99:  # excerpt: ~90% prefix of the previous doc
            toks = texts[i - 1].split()
            k = max(5, int(len(toks) * 0.9))
            texts.append(" ".join(toks[:k]))
            planted.add((i - 1, i))
        else:
            texts.append(" ".join(
                f"w{t}" for t in rng.randint(0, 50_000, size=40)))
    ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(n, dtype="int64"), "text": texts}))

    t0 = time.time()
    with placement_log() as log:
        pairs = containment_pairs(ds, threshold=threshold,
                                  concurrency=max(4, _cpus() // 2),
                                  ).to_pandas()
    sec = time.time() - t0
    got = set(zip(pairs["id_a"].astype(int), pairs["id_b"].astype(int)))
    recall = len(got & planted) / len(planted)
    sample = pairs.head(2000)
    bad = sum(1 for a, b, c in zip(sample["id_a"], sample["id_b"],
                                   sample["containment"])
              if abs(containment(texts[int(a)], texts[int(b)], 3) - c)
              > 1e-12 or c < threshold)
    check(recall == 1.0, f"planted recall {recall} (blocking complete)")
    check(bad == 0, f"{bad} sampled pairs fail exact re-verification")
    return {
        "docs": n, "sec": round(sec, 1),
        "docs_per_sec": round(n / sec, 1),
        "planted": len(planted), "found_pairs": len(got),
        "planted_recall": round(recall, 4),
        "verify_violations_in_sample": bad,
        **_wide_steps(log),
    }


@probe
def cuckoo(hosts=1024, per_host=1024, max_pages=780_000,
           capacity=131_068, shards=8, wave_budget=16_384):
    """Pure-cuckoo vs exact-shadow seen-set equality near filter design
    load (VERDICT r2 item 7 — round-2 validated 131k pages at ~25%
    occupancy; this drives 1M pages at ≥80% per-shard occupancy so the
    victim stash is exercised under real eviction pressure).

    Reports per-mode wall time + pages/s, per-shard occupancy and stash
    sizes, false-positive count (exact-shadow mode observes the filter),
    and the seen-set equality verdict. filter_capacity 131068 rounds to
    32768 buckets × 4 slots = 131,072 slots per shard (8 shards =
    1,048,576 slots total), so 900k admitted URLs ≈ 86% occupancy. The
    default max_pages is 780k of 1,048,576 slots: hot shard ~0.89 under
    the measured binomial host skew — NEAR design load but below the
    ~0.96 stash-overflow point (BASELINE.md: 860k+ overflows BY DESIGN).
    A smoke size: hosts=16, per_host=512, max_pages=6000, capacity=8188.
    """
    from raycrawl.fixtures import cached_corpus
    from raycrawl.pipeline import CrawlConfig, crawl

    corpus = cached_corpus("feature", n_hosts=hosts,
                           pages_per_host=per_host, with_private=False)
    seeds = [f"https://h{i}.example/d0/p0.html" for i in range(hosts)]

    def run(exact_shadow: bool):
        with tempfile.TemporaryDirectory(prefix="raycrawl_cuckoo_") as d:
            cfg = CrawlConfig(
                seed_url=seeds, max_depth=30, max_pages=max_pages,
                num_shards=shards, wave_budget=wave_budget,
                extract_concurrency=max(2, (_cpus() * 7) // 8),
                batch_size=256, out_dir=d,
                filter_capacity=capacity, exact_shadow=exact_shadow)
            t0 = time.time()
            out = crawl(corpus, cfg)
            sec = time.time() - t0
            seen = out.seen().select(["url", "depth", "seq"]).sort_by(
                [("seq", "ascending")])
        return sec, out.stats, seen

    sec_ck, st_ck, seen_ck = run(exact_shadow=False)
    sec_ex, st_ex, seen_ex = run(exact_shadow=True)

    # per-shard slot count: capacity rounds up to power-of-two buckets × 4
    nb = 1
    need = max(1, capacity // 4 + 1)
    while nb < need:
        nb <<= 1
    slots = nb * 4

    report = {
        "pages": st_ck["pages_success"],
        "cuckoo": {"sec": round(sec_ck, 1),
                   "pages_per_sec": round(st_ck["pages_per_sec"], 1),
                   "stash_sizes": [s["stash_size"] for s in st_ck["shards"]],
                   "occupancy": [round(s["seen"] / slots, 3)
                                 for s in st_ck["shards"]]},
        "exact_shadow": {"sec": round(sec_ex, 1),
                         "pages_per_sec": round(st_ex["pages_per_sec"], 1),
                         "false_positives":
                         st_ex["filter_false_positives"],
                         "stash_sizes": [s["stash_size"]
                                         for s in st_ex["shards"]]},
        "slots_per_shard": slots,
        "seen_rows": (seen_ck.num_rows, seen_ex.num_rows),
        "seen_equal": seen_ck.equals(seen_ex),
    }
    check(report["seen_equal"], "cuckoo and exact seen sets diverge")
    return report


@probe
def cuckoo_sizing(keys=20_000_000, load=0.95, fp_probes=2_000_000,
                  member_sample=1_000_000):
    """10^10-URL frontier sizing evidence for the cuckoo seen-set.

    BASELINE.json's north star sizes the URL-seen set "for a 10^10-URL
    frontier". cuckoo.py documents the arithmetic (4-byte fingerprints,
    4 slots/bucket, ~95% design load → ~4.2 bytes/key); this probe MEASURES
    it at tens of millions of real inserts in one shard-sized filter:

      - sustained insert rate (keys/s) and realized load factor,
      - actual table bytes per stored key,
      - false-positive rate over a disjoint probe set (expected ≈
        2·slots/2^32 ≈ 1.9e-9 per probe with 4-byte fingerprints — orders
        below any dedup-relevant threshold),
      - zero false negatives over a member sample (the cuckoo guarantee),
      - stash pressure at the measured load,

    then reports the 10^10 extrapolation: total filter bytes across a
    256-node × 64-shards-per-node layout, per-shard slot counts, and
    per-shard memory — the concrete "does the seen set fit" answer.
    (~2 min at the default size; keys=2_000_000 for a smoke run.)
    """
    from raycrawl.cuckoo import _SLOTS_PER_BUCKET, CuckooFilter

    # bucket count rounds up to a power of two, so derive the INSERT
    # count from the realized slot count — the probe must actually sit
    # at design load, not at whatever the rounding landed on
    nb = 1
    while nb * _SLOTS_PER_BUCKET < keys:
        nb <<= 1
    slots = nb * _SLOTS_PER_BUCKET
    n = int(slots * load)
    filt = CuckooFilter(capacity=nb * _SLOTS_PER_BUCKET - 1)
    check(filt.num_buckets == nb, f"{filt.num_buckets} buckets, want {nb}")
    print(f"inserting {n:,} keys into {slots:,} slots "
          f"(target load {n / slots:.3f})", file=sys.stderr, flush=True)

    # deterministic 20-byte sha1-shaped keys, generated in C-speed chunks
    def key(i: int, tag: bytes) -> bytes:
        return hashlib.sha1(tag + struct.pack("<Q", i)).digest()

    t0 = time.time()
    for i in range(n):
        filt.add(key(i, b"m"))
    insert_sec = time.time() - t0

    # false negatives: NEVER allowed (cuckoo property + stash)
    t1 = time.time()
    misses = sum(1 for i in range(0, n, max(1, n // member_sample))
                 if not filt.contains(key(i, b"m")))
    check(misses == 0, f"{misses} false negatives — invariant broken")

    # false positives: disjoint tag
    fp = sum(1 for i in range(fp_probes) if filt.contains(key(i, b"x")))
    probe_sec = time.time() - t1

    table_bytes = len(filt.table)
    bytes_per_key = table_bytes / filt.count

    # 10^10 extrapolation at the same bytes/key and per-shard slot count
    total = 10_000_000_000
    layout = {"nodes": 256, "shards_per_node": 64}
    shards = layout["nodes"] * layout["shards_per_node"]
    per_shard_keys = total // shards
    per_shard_slots = 1
    while per_shard_slots * _SLOTS_PER_BUCKET < per_shard_keys / load:
        per_shard_slots <<= 1
    per_shard_bytes = per_shard_slots * _SLOTS_PER_BUCKET * 4

    out = {
        "keys": filt.count,
        "slots": slots,
        "load_factor": round(filt.load_factor, 4),
        "stash": len(filt.stash),
        "insert_sec": round(insert_sec, 1),
        "inserts_per_sec": round(n / insert_sec),
        "table_mb": round(table_bytes / 2**20, 1),
        "bytes_per_key": round(bytes_per_key, 2),
        "false_negatives": misses,
        "fp_probes": fp_probes,
        "false_positives": fp,
        "fp_rate_upper_95ci": round(3.0 / fp_probes, 10) if fp == 0
        else round(fp / fp_probes, 10),
        "probe_sec": round(probe_sec, 1),
        "extrapolation_1e10": {
            **layout,
            "per_shard_keys": per_shard_keys,
            "per_shard_table_mb": round(per_shard_bytes / 2**20, 1),
            "per_node_table_gb": round(
                per_shard_bytes * layout["shards_per_node"] / 2**30, 2),
            "cluster_table_gb": round(per_shard_bytes * shards / 2**30, 1),
        },
    }
    check(out["load_factor"] >= load - 0.03,
          f"load factor {out['load_factor']} below {load} - 0.03")
    # far below dedup relevance
    check(fp <= max(2, fp_probes * 1e-6),
          f"{fp} false positives in {fp_probes} probes")
    return out


@probe
def dedup(docs=150_000):
    """MinHash-LSH dedup at its shuffle placement (default 150k docs).

    The sf benches build band tables of a few MB, which run on the
    driver; 150k synthetic docs (40-token texts from a 40k vocabulary,
    1,500 planted near-dup pairs at Jaccard ≈ 0.85) build a ~100 MB band
    table, past `_DRIVER_BYTES`, so the band step runs on coarse
    partitions. Reports wall time, planted-pair recall, precision and
    the placement each wide step took.
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.dedup import jaccard, minhash_dedup_pairs

    n, threshold = docs, 0.5
    rng = np.random.RandomState(42)
    texts = []
    planted = set()
    for i in range(n):
        if i % 100 == 0 and i > 0:
            toks = texts[i - 1].split()
            toks[7] = f"w{40_000 + i}"  # one-token perturbation
            texts.append(" ".join(toks))
            planted.add((i - 1, i))
        else:
            texts.append(" ".join(
                f"w{t}" for t in rng.randint(0, 40_000, size=40)))
    ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(n, dtype="int64"), "text": texts}))

    t0 = time.time()
    with placement_log() as log:
        pairs = minhash_dedup_pairs(ds, threshold=threshold,
                                    concurrency=max(4, _cpus() // 2),
                                    ).to_pandas()
    sec = time.time() - t0
    got = set(zip(pairs["id_a"].astype(int), pairs["id_b"].astype(int)))
    recall = len(got & planted) / len(planted)
    # precision: every returned pair must truly clear the threshold
    bad = sum(1 for a, b in list(got)[:2000]
              if jaccard(texts[a], texts[b]) < threshold)
    check(recall >= 0.99, f"planted recall {recall}")
    check(bad == 0, f"{bad} sampled pairs below the threshold")
    return {
        "docs": n, "sec": round(sec, 1),
        "docs_per_sec": round(n / sec, 1),
        "planted": len(planted), "found_pairs": len(got),
        "planted_recall": round(recall, 4),
        "threshold_violations_in_sample": bad,
        **_wide_steps(log),
    }


@probe
def delta(urls=5_000_000):
    """Recrawl snapshot delta over 5M synthetic URLs
    (raycrawl/ops/delta.py). The mutation rates mirror the crawl_delta
    query (1-in-13 removed, 1-in-5 edited, 1-in-11 added), so every output
    count has a closed form the probe checks exactly. Reports urls/s."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.delta import snapshot_delta

    def make_old(batch: pd.DataFrame) -> pd.DataFrame:
        i = batch["id"].to_numpy(np.int64)
        return pd.DataFrame({"doc_id": i,
                             "text": pd.Series(i % 9973).astype(str)})

    old = rd.range(urls).map_batches(make_old, batch_format="pandas",
                                     batch_size=262144)

    def mutate(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[b["doc_id"] % 13 != 7].copy()
        edited = keep["doc_id"] % 5 == 0
        keep.loc[edited, "text"] = keep.loc[edited, "text"] + " v2"
        added = b[b["doc_id"] % 11 == 0]
        return pd.concat([keep, pd.DataFrame({
            "doc_id": added["doc_id"] + (1 << 40),
            "text": "new " + added["doc_id"].astype(str)})],
            ignore_index=True)

    new = rd.range(urls).map_batches(make_old, batch_format="pandas",
                                     batch_size=262144).map_batches(
        mutate, batch_format="pandas")

    t0 = time.time()
    with placement_log() as log:
        out = snapshot_delta(old, new, key="doc_id", payload="text")
    counts = {r["status"]: r["count()"] for r in
              out.groupby("status").count().take_all()}
    sec = time.time() - t0

    ids = np.arange(urls, dtype=np.int64)
    exp = {
        "removed": int((ids % 13 == 7).sum()),
        "changed": int(((ids % 5 == 0) & (ids % 13 != 7)).sum()),
        "added": int((ids % 11 == 0).sum()),
    }
    check(counts == exp, f"delta counts {counts} != closed form {exp}")
    return {"urls": urls, "sec": round(sec, 1),
            "urls_per_sec": round(urls / sec),
            "delta_counts": counts, "num_cpus": _cpus(), **_wide_steps(log)}


@probe
def dup_ngram(docs=100_000):
    """Cross-document duplicated-n-gram fraction at scale (100k docs).

    `dup_ngram_stats` ships one (gram, doc, mult) row per distinct
    (doc, 5-gram) through `agg.exchange` — the same shuffle regime
    as the minhash/span dedup family. The sf benches run at ≤5k docs, so
    this probe drives 100k synthetic 40-token docs (40k vocabulary) with a
    10-token boilerplate block planted in every 20th doc, and checks:

      - every planted doc reports AT LEAST the 6 fully-inside-boilerplate
        gram positions as duplicated, and the 6 is the modal value (the
        single-random-flank boundary grams, e.g. [r9 B0 B1 B2 B3], collide
        between planted docs with p = 1/|vocab| per pair, so a few hundred
        planted docs legitimately report 7-8);
      - (sampled) unplanted docs report zero duplicated grams (their grams
        all contain >= 5 random tokens);
      - denominators are exact (36 grams for 40 tokens).
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.textstats import dup_ngram_stats

    n = docs
    rng = np.random.RandomState(11)
    vocab = np.array([f"w{k}" for k in range(40_000)])
    boiler = [f"B{j}" for j in range(10)]  # tokens outside the vocab
    texts = []
    for i in range(n):
        toks = list(vocab[rng.randint(0, len(vocab), size=40)])
        if i % 20 == 0:
            toks[10:20] = boiler
        texts.append(" ".join(toks))
    docs_ds = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64), "text": texts})) \
        .repartition(64)

    t0 = time.time()
    with placement_log() as log:
        out = dup_ngram_stats(docs_ds).to_pandas()
    wall = time.time() - t0

    out = out.set_index("doc_id")
    check((out["n_ngrams"] == 36).all(), "a 40-token doc without 36 grams")
    planted = out.loc[[i for i in range(0, n, 20)]]
    counts = planted["n_dup_ngrams"].value_counts().to_dict()
    check((planted["n_dup_ngrams"] >= 6).all(),
          f"planted doc under 6 dup grams: {counts}")
    check((planted["n_dup_ngrams"] <= 14).all(),  # 6 + 8 boundary
          f"planted doc over 14 dup grams: {counts}")
    check(max(counts, key=counts.get) == 6,
          f"modal planted dup count is not 6: {counts}")
    sample = out.loc[[i for i in range(1, min(n, 20_000), 7) if i % 20]]
    check((sample["n_dup_ngrams"] == 0).all(),
          "an unplanted doc reports duplicated grams")
    return {
        "docs": n, "planted": n // 20,
        "sec": round(wall, 2),
        "docs_per_sec": round(n / wall, 1),
        "num_cpus": _cpus(), **_wide_steps(log),
    }


def _ed(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[len(b)]


@probe
def edit_pairs(docs=200_000):
    """Edit-distance near-dup join at shuffle scale (default 200k docs).

    `edit_prefix_pairs` explodes each doc into key_len+1 deletion variants
    (k=1), groups candidates on the variant string via coarse hash
    partitions, and DP-verifies pairs in a second coarse shuffle. This
    probe drives 200k synthetic docs — random 24-char keys plus planted
    typo families (substitution / deletion / insertion within the key
    window, i.e. true distance-1 pairs) — through the full path and checks
    EVERY planted pair is recovered (symmetric-delete blocking is
    pigeonhole-complete, so recall must be exactly 1.0, not an LSH
    s-curve) and that a sample of returned pairs verifies against a serial
    Levenshtein.
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.dedup import edit_prefix_pairs

    # short texts (≤ 20 chars < key_len) so the key IS the whole text:
    # with a prefix window, deletions/insertions on longer texts shift
    # tail characters into the window and are genuinely distance-2 on
    # the key — short strings make all three edit modes true d=1 twins
    n = docs
    rng = np.random.default_rng(42)
    alpha = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    base = ["".join(rng.choice(alpha, 20)) for _ in range(n)]
    texts = []
    planted = set()
    for i, s in enumerate(base):
        if i % 100 == 99:  # typo family: distance-1 twin of doc i-1
            s = base[i - 1]
            p = int(rng.integers(0, 20))
            mode = i % 3
            if mode == 0:
                s = s[:p] + "#" + s[p + 1:]      # substitution
            elif mode == 1:
                s = s[:p] + s[p + 1:]            # deletion
            else:
                s = s[:p] + "#" + s[p:]          # insertion
            planted.add((i - 1, i))
        texts.append(s)
    ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(n, dtype="int64"), "text": texts}))

    t0 = time.time()
    with placement_log() as log:
        pairs = edit_prefix_pairs(ds, k=1, key_len=24).to_pandas()
    sec = time.time() - t0
    got = set(zip(pairs["doc_a"].astype(int), pairs["doc_b"].astype(int)))
    recall = len(got & planted) / len(planted)
    keys = [t[:24] for t in texts]
    sample = pairs.head(2000)
    bad = sum(1 for a, b, d in zip(sample["doc_a"], sample["doc_b"],
                                   sample["dist"])
              if _ed(keys[int(a)], keys[int(b)]) != int(d) or int(d) > 1)
    check(recall == 1.0, f"planted recall {recall} (blocking is complete)")
    check(bad == 0, f"{bad} sampled pairs fail serial Levenshtein")
    return {
        "docs": n, "sec": round(sec, 1),
        "docs_per_sec": round(n / sec, 1),
        "planted": len(planted), "found_pairs": len(got),
        "planted_recall": round(recall, 4),
        "verify_violations_in_sample": bad,
        **_wide_steps(log),
    }


@probe
def embedding_lsh(vecs=150_000, dim=64, planted=1_500):
    """Hyperplane-LSH embedding near-dup at scale (150k vectors).

    Above `_EMBEDDING_EXACT_ROWS` (100k) rows `embedding_dup_pairs` runs
    its sample-free scale path (random-plane band signatures -> exact
    within-band verification, placed by the keyed table's size; nothing
    broadcast). The sf benches run at 2k vectors, so this probe drives
    150k synthetic 64-dim vectors with 1,500 planted near-dup pairs
    (cosine ~0.99) through the LSH path and reports wall time, the
    placement each wide step took, planted-pair recall and
    precision (within-band verification is exact, so precision must be 1.0
    against the exact threshold by construction — checked on the planted
    truth and on a brute-force check of a sample).
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.dedup import embedding_dup_pairs

    n, d, k, threshold = vecs, dim, planted, 0.95
    rng = np.random.RandomState(42)
    base = rng.standard_normal((n, d))
    ids = np.arange(n, dtype=np.int64)
    # planted near-dups: tiny perturbation of base[i] -> cosine ~0.995;
    # random 64-dim pairs have cosine ~N(0, 1/8), so no accidental pairs
    dup_src = rng.choice(n, size=k, replace=False)
    dups = base[dup_src] + 0.05 * rng.standard_normal((k, d))
    allv = np.vstack([base, dups])
    all_ids = np.concatenate([ids, np.int64(1) << 40 | np.arange(k)])
    truth = {(int(s), int(1 << 40 | j)) for j, s in enumerate(dup_src)}

    df = pd.DataFrame({"vec_id": all_ids,
                       "embedding": [row.tolist() for row in allv]})
    emb = rd.from_pandas(df).repartition(64)

    t0 = time.time()
    with placement_log() as log:
        got = embedding_dup_pairs(emb, threshold=threshold).to_pandas()
    wall = time.time() - t0

    pairs = {(int(a), int(b)) for a, b in zip(got["id_a"], got["id_b"])}
    hit = len(pairs & truth)
    recall = hit / len(truth)
    extras = pairs - truth
    # every extra pair must genuinely clear the exact cosine threshold
    vid2vec = dict(zip(all_ids.tolist(), range(len(all_ids))))
    bad = 0
    for a, b in list(extras)[:2000]:
        va, vb = allv[vid2vec[a]], allv[vid2vec[b]]
        cos = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
        if cos < threshold - 1e-12:
            bad += 1
    check(bad == 0, f"{bad} below-threshold pairs emitted")
    check(recall >= 0.99, f"planted recall {recall:.4f} < 0.99")
    return {
        "vecs": int(n + k), "dim": d, "planted_pairs": len(truth),
        "recall_planted": round(recall, 4),
        "extra_true_pairs": len(extras),
        "sec": round(wall, 2),
        "pairs_per_sec_in": round((n + k) / wall, 1),
        "num_cpus": _cpus(),
        **_wide_steps(log),
    }


def _numpy_pagerank(src, dst, n, num_iters, scale=10**12):
    import numpy as np

    base = scale // n
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, src, 1)
    r = np.full(n, base, dtype=np.int64)
    dangling = deg == 0
    for _ in range(num_iters):
        share = r[src] // deg[src]
        contrib = np.zeros(n, dtype=np.int64)
        np.add.at(contrib, dst, share)
        add = int(r[dangling].sum()) // n
        r = (15 * base + 85 * (contrib + add)) // 100
    return r


@probe
def graph(nodes=500_000, edges=3_000_000, stars=100_000):
    """PageRank + connected components on multi-million-edge graphs
    (raycrawl/ops/graph.py), checked exactly, reporting throughputs.

    - PageRank: 500k-node / 3M-edge random graph, 3 iterations, broadcast
      placement, verified int64-exact against a vectorized numpy
      implementation of the documented recurrence (np.add.at contrib fold
      on the driver).
    - Components: a 1M-node star forest (100k stars of 10) — expected label
      of every node is its star root in closed form; star diameter 2 keeps
      hash-min rounds at 3, so the probe measures edge-pass throughput, not
      diameter pathology.
    """
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.graph import connected_components, pagerank

    out = {"num_cpus": _cpus()}

    # --- PageRank ---------------------------------------------------------
    n, m, iters = nodes, edges, 3
    rng = np.random.default_rng(42)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    eds = rd.from_arrow(
        pa.table({"src": src, "dst": dst})).repartition(64)
    t0 = time.time()
    with _placement("broadcast"), placement_log() as log:
        got = pagerank(eds, np.arange(n), num_iters=iters)
    pr_sec = time.time() - t0
    want = _numpy_pagerank(src, dst, n, iters)
    check(np.array_equal(got.sort_values("node")["rank_fp"].to_numpy(),
                         want), "pagerank mismatch vs numpy reference")
    out["pagerank"] = {"nodes": n, "edges": int(len(src)), "iters": iters,
                       "sec": round(pr_sec, 2),
                       "edge_passes_per_sec": round(
                           len(src) * iters / pr_sec)}

    # --- Connected components --------------------------------------------
    size = 10
    n2 = stars * size
    roots = np.repeat(np.arange(stars) * size, size - 1)
    leaves = np.concatenate(
        [np.arange(s * size + 1, (s + 1) * size) for s in range(stars)])
    eds2 = rd.from_arrow(
        pa.table({"src": roots, "dst": leaves})).repartition(64)
    t0 = time.time()
    with _placement("broadcast"), placement_log() as log2:
        cc = connected_components(eds2, np.arange(n2))
    cc_sec = time.time() - t0
    expect = (np.arange(n2) // size) * size
    check(np.array_equal(cc.sort_values("node")["component"].to_numpy(),
                         expect), "components mismatch vs closed form")
    out["components"] = {"nodes": n2, "edges": int(len(roots)),
                         "sec": round(cc_sec, 2),
                         "nodes_per_sec": round(n2 / cc_sec)}
    return {**out, **_wide_steps(log + log2)}


def _numpy_hits(src, dst, n, num_iters, scale=10**6):
    """Vectorized reference of the documented recurrence — exact as long
    as Σraw·scale < 2^63 (true here: Σraw ≤ m·scale = 3·10^12)."""
    import numpy as np

    def norm(raw):
        s = int(raw.sum())
        return (raw * scale) // s if s else np.zeros_like(raw)

    h = np.full(n, scale // n, dtype=np.int64)
    for _ in range(num_iters):
        ar = np.zeros(n, dtype=np.int64)
        np.add.at(ar, dst, h[src])
        a = norm(ar)
        hr = np.zeros(n, dtype=np.int64)
        np.add.at(hr, src, a[dst])
        h = norm(hr)
    return a, h


@probe
def hits(nodes=500_000, edges=3_000_000, shuffle_nodes=100_000,
         shuffle_edges=500_000):
    """HITS hubs & authorities on multi-million-edge graphs
    (raycrawl/ops/graph.py::hits), checked exactly, reporting throughputs.

    - Broadcast placement: 500k-node / 3M-edge random graph, 3
      iterations, verified int64-exact against a vectorized numpy
      implementation of the documented sum-normalized floor-division
      recurrence (np.add.at sweep folds on the driver).
    - Shuffle placement: 100k-node / 500k-edge subgraph, 2 iterations,
      verified bit-equal to the broadcast placement on the same input
      (the partitioning the 100-TB deployment would use once the two
      state vectors outgrow the object-store broadcast threshold).
    """
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.graph import hits as hits_op

    out = {"num_cpus": _cpus()}

    # --- broadcast path: 500k nodes / 3M edges -----------------------------
    n, m, iters = nodes, edges, 3
    rng = np.random.default_rng(42)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    eds = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(64)
    t0 = time.time()
    with _placement("broadcast"):
        got = hits_op(eds, np.arange(n), num_iters=iters)
    sec = time.time() - t0
    a_want, h_want = _numpy_hits(src, dst, n, iters)
    got = got.sort_values("node")
    check(np.array_equal(got["auth_fp"].to_numpy(), a_want),
          "HITS authority mismatch vs numpy reference")
    check(np.array_equal(got["hub_fp"].to_numpy(), h_want),
          "HITS hub mismatch vs numpy reference")
    out["broadcast"] = {"nodes": n, "edges": int(len(src)), "iters": iters,
                        "sec": round(sec, 2),
                        # 2 sweeps per iteration (auth + hub)
                        "edge_passes_per_sec": round(
                            2 * len(src) * iters / sec)}

    # --- shuffle path equivalence: 100k nodes / 500k edges -----------------
    n2, m2, iters2 = shuffle_nodes, shuffle_edges, 2
    src2 = rng.integers(0, n2, size=m2, dtype=np.int64)
    dst2 = rng.integers(0, n2, size=m2, dtype=np.int64)
    keep2 = src2 != dst2
    src2, dst2 = src2[keep2], dst2[keep2]
    tbl = pa.table({"src": src2, "dst": dst2})
    with _placement("broadcast"):
        b = hits_op(rd.from_arrow(tbl).repartition(32), np.arange(n2),
                    num_iters=iters2)
    t0 = time.time()
    with _placement("shuffle"), placement_log() as log:
        s = hits_op(rd.from_arrow(tbl).repartition(32), np.arange(n2),
                    num_iters=iters2)
    sh_sec = time.time() - t0
    check_frame(b.sort_values("node").reset_index(drop=True),
                s.sort_values("node").reset_index(drop=True),
                "HITS shuffle placement differs from broadcast")
    out["shuffle"] = {"nodes": n2, "edges": int(len(src2)),
                      "iters": iters2, "sec": round(sh_sec, 2)}
    return {**out, **_wide_steps(log)}


@probe
def jsonl(docs=100_000):
    """JSONL shard sink/source throughput at 100k docs
    (raycrawl/ops/jsonl.py), checking a lossless roundtrip (the JSONL
    counterpart of the warc probe).

    100k synthetic ~600-char docs (≈60 MB of text) export to 64 gzip
    shards and read back; the probe checks the read-back table equals the
    input bit-for-bit (ids, unicode text, nulls) and reports write/read
    MB/s over the uncompressed payload.
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.jsonl import read_jsonl_shards, write_jsonl_shards

    n = docs
    rng = np.random.RandomState(31)
    vocab = np.array([f"wörd{k}" for k in range(5000)])
    texts = [" ".join(vocab[rng.randint(0, len(vocab), size=80)])
             if i % 97 else None for i in range(n)]
    frame = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                          "text": texts,
                          "lang": rng.choice(["en", "de", "es"], n)})
    payload_mb = sum(len(t) for t in texts if t) / 1e6
    ds = rd.from_pandas(frame).repartition(64)
    with tempfile.TemporaryDirectory(prefix="raycrawl_jsonl_") as tmp:
        t0 = time.time()
        with placement_log() as log:
            manifest = write_jsonl_shards(ds, tmp, n_shards=64)
        w_sec = time.time() - t0
        check(manifest["n_rows"].sum() == n and len(manifest) == 64,
              f"manifest: {manifest['n_rows'].sum()} rows in "
              f"{len(manifest)} shards")
        gz_mb = manifest["n_bytes"].sum() / 1e6

        t0 = time.time()
        back = read_jsonl_shards(tmp).to_pandas()
        r_sec = time.time() - t0
    back = (back[["doc_id", "text", "lang"]]
            .sort_values("doc_id").reset_index(drop=True))
    check_frame(back, frame, "JSONL read-back differs from the export")

    return {
        "docs": n, "payload_mb": round(payload_mb, 1),
        "gzip_mb": round(gz_mb, 1),
        "write_sec": round(w_sec, 2),
        "write_mb_per_sec": round(payload_mb / w_sec, 1),
        "read_sec": round(r_sec, 2),
        "read_mb_per_sec": round(payload_mb / r_sec, 1),
        "num_cpus": _cpus(), **_wide_steps(log),
    }


@probe
def minhash_index(docs=200_000, shard=5_000, planted=1_000):
    """Incremental near-dup at scale: staged LSH index + new-shard probe.

    The one-shot minhash self-join re-shuffles the whole corpus per run; at
    recrawl scale each new shard must instead probe a STAGED index
    (ops/dedup.py build_minhash_index / minhash_probe_index — bucket-
    partitioned band table, probe IO proportional to the shard). This probe
    indexes a 200k-doc corpus once, then probes a 5k-doc shard with 1,000
    planted near-dups (one-token perturbations, Jaccard ≈ 0.97) and 4,000
    disjoint-vocabulary docs, checking 100% planted recall and zero
    surviving false pairs (exact verify kills band collisions).
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import placement_log
    from raycrawl.ops.dedup import build_minhash_index, minhash_probe_index

    n, ns, npl = docs, shard, planted
    rng = np.random.RandomState(0)
    texts = [" ".join(f"w{t}" for t in rng.randint(0, 50_000, size=40))
             for _ in range(n)]

    def corpus():  # blocked input so the signature stage parallelizes
        return rd.from_pandas(pd.DataFrame(
            {"doc_id": np.arange(n, dtype="int64"), "text": texts})) \
            .repartition(32)

    rows = []
    step = n // npl
    for i in range(npl):
        toks = texts[i * step].split()
        toks[5] = "zX"
        rows.append((10**9 + i, " ".join(toks), i * step))
    for i in range(ns - npl):
        rows.append((2 * 10**9 + i, " ".join(
            f"v{t}" for t in rng.randint(0, 50_000, size=40)), -1))
    new = rd.from_pandas(pd.DataFrame(
        {"doc_id": [r[0] for r in rows],
         "text": [r[1] for r in rows]})).repartition(8)

    with tempfile.TemporaryDirectory(prefix="raycrawl_mh_idx_") as idx:
        t0 = time.time()
        build_minhash_index(corpus(), idx)
        t_build = time.time() - t0

        t0 = time.time()
        with placement_log() as log:
            out = minhash_probe_index(new, idx, corpus(),
                                      threshold=0.5).to_pandas()
        t_probe = time.time() - t0
    got = {(a, b) for a, b in zip(out["id_a"], out["id_b"])}
    recall = sum(1 for (nid, _, src) in rows[:npl] if (nid, src) in got)
    check(recall == npl, f"planted recall {recall}/{npl}")
    check(len(out) == npl, f"{len(out) - npl} unexpected pairs survived")
    check((out["jaccard_sim"] >= 0.5).all(), "a pair below jaccard 0.5")

    return {
        "corpus_docs": n, "shard_docs": ns, "planted": npl,
        "build_sec": round(t_build, 1), "probe_sec": round(t_probe, 1),
        "pairs": len(out), "planted_recall": recall, **_wide_steps(log)}


def _spill_pass(corpus: str, store_mb: int, num_cpus: int) -> dict:
    """One bulk extract + shuffle pass in a fresh Ray session whose object
    store is ``store_mb`` MB (0: Ray's default size)."""
    import glob
    import threading

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from raycrawl.extract import scrape_dataset

    with ray_session(num_cpus, store_mb * 2**20 or None), \
            tempfile.TemporaryDirectory(prefix="raycrawl_spill_") as out_dir:
        # watch the raylet's spill directory (<session>/ray_spilled_objects_*)
        # while the pipeline runs: files come and go as objects are freed, so
        # record the PEAK resident bytes and the set of distinct spill files
        session_dir = ray._private.worker.global_worker.node \
            .get_session_dir_path()
        stop = threading.Event()
        seen_files: set = set()
        peak = [0]

        def watch() -> None:
            while not stop.is_set():
                total = 0
                for d in glob.glob(os.path.join(session_dir,
                                                "ray_spilled_objects*")):
                    try:
                        for f in os.listdir(d):
                            p = os.path.join(d, f)
                            seen_files.add(f)
                            try:
                                total += os.path.getsize(p)
                            except OSError:
                                pass
                    except OSError:
                        pass
                peak[0] = max(peak[0], total)
                stop.wait(0.25)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        ds = rd.read_parquet(corpus, columns=["url", "warc_ts", "html"])
        t0 = time.time()
        try:
            scrape_dataset(ds, concurrency=max(1, (num_cpus * 3) // 4),
                           batch_size=32).random_shuffle(seed=7) \
                .write_parquet(out_dir)
        finally:
            sec = time.time() - t0
            stop.set()
            watcher.join()
        rows = sum(pq.read_metadata(os.path.join(out_dir, f)).num_rows
                   for f in os.listdir(out_dir) if f.endswith(".parquet"))
    return {"sec": round(sec, 2), "rows": rows,
            "pages_per_sec": round(rows / sec, 1),
            "spilled_peak_mb": round(peak[0] / 2**20, 1),
            "spill_files_seen": len(seen_files),
            "store_mb": store_mb}


@probe
def spill(hosts=32, pages_per_host=1024, store_mb=250, num_cpus=16):
    """Object-store spill probe (VERDICT r4 item 6).

    At 100 TB the crawl's `html: binary` blocks will not fit the plasma
    store; Ray Data's contract is that the streaming executor keeps running
    and the object store SPILLS to disk. No earlier probe exercised that.

    This probe runs the bulk fetch+extract pipeline PLUS an all-to-all
    (`random_shuffle` — the stage shape of every wide dedup/sort pass,
    which unlike the streaming map path must hold the full block set in
    the store) twice, each in a fresh Ray session:

      1. constrained: object_store_memory pinned far below the working set
         (default 250 MB vs a ~0.9 GB shuffle working set), forcing spill
      2. unconstrained: the default store

    and checks the constrained run COMPLETES with the identical output
    row count AND actually spilled (peak resident spill bytes + distinct
    spill files watched during the run), reporting both throughputs and
    the degradation ratio. Notable negative result baked into the design:
    the pure streaming map path (no shuffle) does NOT spill even at a
    250 MB store — Ray Data's backpressure throttles the read instead,
    which is exactly the 100-TB-safe behavior.
    """
    from raycrawl.fixtures import cached_corpus

    corpus = cached_corpus("feature", n_hosts=hosts,
                           pages_per_host=pages_per_host, size_factor=25,
                           with_private=False)
    constrained = _spill_pass(corpus, store_mb, num_cpus)
    free = _spill_pass(corpus, 0, num_cpus)
    check(constrained["rows"] == free["rows"],
          f"row mismatch under spill: {constrained['rows']} vs "
          f"{free['rows']}")
    check(constrained["spill_files_seen"] > 0,
          "constrained run spilled nothing — store cap not binding, "
          "raise the corpus")
    return {
        "rows": free["rows"],
        "constrained": constrained,
        "unconstrained": free,
        "throughput_ratio_constrained":
            round(constrained["pages_per_sec"] / free["pages_per_sec"], 3),
        "num_cpus": num_cpus,
    }


def _tfidf_reference(doc_ids, texts, k=3, scale=10**6):
    """Vectorized exact replay: int64-safe since
    scale·tf·(2N+1) ≤ 10^6·40·(2·10^5+1) ≈ 8·10^12 < 2^63."""
    import numpy as np
    import pandas as pd

    rows = pd.DataFrame({
        "doc_id": np.repeat(doc_ids, [len(t.split()) for t in texts]),
        "term": [w for t in texts for w in t.split()]})
    tf = (rows.groupby(["doc_id", "term"], sort=False)
          .size().rename("tf").reset_index())
    dl = rows.groupby("doc_id", sort=False).size().rename("dl")
    df = tf.groupby("term", sort=False)["doc_id"].size().rename("df")
    n = len(dl)
    tf = tf.join(dl, on="doc_id").join(df, on="term")
    tfv = tf["tf"].to_numpy(np.int64)
    dfv = tf["df"].to_numpy(np.int64)
    dlv = tf["dl"].to_numpy(np.int64)
    tf["score_fp"] = (scale * tfv * (2 * n - 2 * dfv + 1)) \
        // (dlv * (2 * dfv + 1))
    tf = tf.sort_values(["doc_id", "score_fp", "term"],
                        ascending=[True, False, True], kind="mergesort")
    tf["rank"] = tf.groupby("doc_id", sort=False).cumcount() + 1
    out = tf[tf["rank"] <= k][["doc_id", "rank", "term", "score_fp"]]
    return out.reset_index(drop=True).astype(
        {"doc_id": "int64", "rank": "int64", "score_fp": "int64"})


@probe
def tfidf(docs=100_000):
    """Per-document TF-IDF top-3 terms at 100k docs
    (raycrawl/ops/textstats.py::tfidf_top_terms), checked exactly.

    The sf benches run at ≤5k docs; this probe drives 100k synthetic
    40-token docs over a 40k vocabulary (~4M token instances, ~2.8M
    distinct (doc, term) pairs through the bounded top-K df machinery) and
    verifies the full (doc, rank, term, score_fp) output bit-equal to a
    vectorized pandas replay of the documented fixed-point score

        score_fp = (10^6 · tf · (2N − 2df + 1)) // (dl · (2df + 1))

    with the same (score desc, term asc) per-doc ranking. The vocabulary
    (40k) sits far below the 1M df-cap, so the run exercises the EXACT
    regime the sf gates rely on.
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.textstats import tfidf_top_terms

    n = docs
    rng = np.random.RandomState(7)
    vocab = np.array([f"w{j}" for j in range(40_000)])
    texts = [" ".join(vocab[rng.randint(0, len(vocab), size=40)])
             for _ in range(n)]
    doc_ids = np.arange(n, dtype=np.int64)
    docs_ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": doc_ids, "text": texts})).repartition(64)

    t0 = time.time()
    got = (tfidf_top_terms(docs_ds, k=3).to_pandas()
           .sort_values(["doc_id", "rank"]).reset_index(drop=True))
    wall = time.time() - t0

    want = _tfidf_reference(doc_ids, texts, k=3)
    check_frame(got, want, "tfidf top terms differ from the pandas replay")
    return {
        "docs": n, "tokens": n * 40,
        "sec": round(wall, 2),
        "docs_per_sec": round(n / wall, 1),
        "num_cpus": _cpus(),
    }


@probe
def warc(hosts=32, pages_per_host=1024):
    """WARC sink + source throughput over the bench corpus (32 hosts x
    1024 pages, zipf-ish 2-64 KB bodies — the same corpus the headline
    bench extracts). Writes one .warc.gz per host bucket, reads the
    archives back through the Ray datasource, verifies row count + a
    sample payload digest, and reports pages/s + MB/s both ways. Gzip
    (C stdlib) dominates both directions — the realistic bound for
    Common-Crawl-segment ingest."""
    import pyarrow.dataset as pads

    from raycrawl import warc as W
    from raycrawl.fixtures import cached_corpus

    corpus = cached_corpus("feature", n_hosts=hosts,
                           pages_per_host=pages_per_host,
                           size_factor=25, with_private=False)
    orig = pads.dataset(corpus, format="parquet", partitioning="hive") \
        .to_table(columns=["url", "html"])
    by_url = dict(zip(orig.column("url").to_pylist(),
                      orig.column("html").to_pylist()))
    with tempfile.TemporaryDirectory(prefix="raycrawl_warc_") as out_dir:
        t0 = time.time()
        W.write_warc(corpus, out_dir)
        w_sec = time.time() - t0
        archive_bytes = sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in os.listdir(out_dir) if f.endswith(".warc.gz"))

        t0 = time.time()
        ds = W.read_warc(out_dir)
        n = ds.count()
        r_sec = time.time() - t0

        # spot-verify payloads survive the roundtrip byte-exactly
        for row in ds.take(5):
            check(bytes(row["html"]) == bytes(by_url[row["url"]]),
                  f"payload of {row['url']} changed in the roundtrip")
    check(n == len(by_url), f"{n} archive records, {len(by_url)} pages")

    html_bytes = sum(len(v) for v in by_url.values())
    return {
        "pages": n,
        "html_mb": round(html_bytes / 2**20, 1),
        "archive_mb": round(archive_bytes / 2**20, 1),
        "write": {"sec": round(w_sec, 1),
                  "pages_per_sec": round(n / w_sec),
                  "mb_per_sec": round(html_bytes / 2**20 / w_sec, 1)},
        "read": {"sec": round(r_sec, 1),
                 "pages_per_sec": round(n / r_sec),
                 "mb_per_sec": round(html_bytes / 2**20 / r_sec, 1)},
        "num_cpus": _cpus(),
    }


# --- runner -----------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout, suffixed ``-dirty`` for uncommitted edits."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=_REPO, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _child(fn, session: bool, params: dict, conn) -> None:
    """Spawned-process body: run one probe, send its result back."""
    os.dup2(2, 1)  # stdout carries records only; Ray's output goes to stderr
    metrics, error, wall = None, None, None
    try:
        with ray_session() if session else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                metrics = fn(**params)
            finally:
                wall = round(time.perf_counter() - t0, 2)
    except Exception as e:  # a failing probe is a record, not a crash
        traceback.print_exc()
        error = f"{type(e).__name__}: {e}"
    conn.send({"wall_s": wall,
               "peak_rss_mb": round(resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
               "passed": error is None, "error": error, "metrics": metrics})
    conn.close()


def run_probe(name: str, **params) -> dict:
    """Run probe ``name`` (``params`` override its defaults) in a fresh
    spawned process and return its record."""
    fn = PROBES[name]
    params = {**{k: p.default for k, p in
                 inspect.signature(fn).parameters.items()}, **params}
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child,
                       args=(fn, name not in SESSIONLESS, params, send))
    proc.start()
    send.close()
    try:
        result = recv.recv()
    except EOFError:  # the process died before it could report
        result = None
    proc.join()
    if result is None:
        result = {"wall_s": None, "peak_rss_mb": None, "passed": False,
                  "error": f"probe process exited with code {proc.exitcode}",
                  "metrics": None}
    return {"probe": name, "params": params, "git_sha": _git_sha(),
            **result}


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in PROBES]
    if unknown:
        print(f"unknown probe {' '.join(unknown)}; known probes: "
              f"{' '.join(PROBES)}", file=sys.stderr)
        return 2
    failed = False
    for name in names or list(PROBES):
        print(f"probe {name}: running", file=sys.stderr, flush=True)
        rec = run_probe(name)
        print(f"probe {name}: {'passed' if rec['passed'] else 'FAILED'} "
              f"in {rec['wall_s']} s", file=sys.stderr, flush=True)
        print(json.dumps(rec), flush=True)
        failed |= not rec["passed"]
    return 1 if failed else 0


if __name__ == "__main__":
    os.chdir(_REPO)  # Ray workers resolve `raycrawl` via the driver's cwd
    sys.path.insert(0, _REPO)
    sys.exit(main(sys.argv[1:]))
