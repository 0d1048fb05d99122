"""Golden byte-equality of the Ray extraction stage (FIXTURES.md §4)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from raycrawl.extract import scrape_dataset
from raycrawl.fixtures import cached_corpus
from raycrawl.gen_golden import GOLDEN_DIR, T2


def test_extract_stage_matches_golden_markdown():
    corpus_dir = cached_corpus("feature", **T2)
    ds = ray.data.read_parquet(corpus_dir, columns=["url", "warc_ts", "html"])
    out = scrape_dataset(ds, concurrency=2, batch_size=32)
    got = {row["url"]: row["markdown"]
           for batch in out.select_columns(["url", "markdown"]).iter_batches(
               batch_format="pyarrow")
           for row in batch.to_pylist()}
    golden = pq.read_table(os.path.join(GOLDEN_DIR, "expected_markdown.parquet"))
    exp = dict(zip(golden.column("url").to_pylist(),
                   golden.column("markdown").to_pylist()))
    assert set(got) == set(exp)
    mismatches = [u for u in exp if got[u] != exp[u]]
    assert mismatches == [], f"{len(mismatches)} markdown mismatches, first: {mismatches[:3]}"


def test_extract_stage_matches_golden_structured():
    corpus_dir = cached_corpus("feature", **T2)
    ds = ray.data.read_parquet(corpus_dir, columns=["url", "warc_ts", "html"])
    out = scrape_dataset(ds, concurrency=2, batch_size=32)
    cols = ["url", "title", "description", "language", "json_ld"]
    got = {row["url"]: row
           for batch in out.select_columns(cols).iter_batches(batch_format="pyarrow")
           for row in batch.to_pylist()}
    golden = pq.read_table(os.path.join(GOLDEN_DIR, "expected_structured.parquet"))
    for row in golden.to_pylist():
        g = got[row["url"]]
        for c in ("title", "description", "language", "json_ld"):
            assert g[c] == (row[c] or g[c] if row[c] is None else row[c]), (row["url"], c)


def test_extract_status_codes_all_200():
    corpus_dir = cached_corpus("feature", **T2)
    ds = ray.data.read_parquet(corpus_dir, columns=["url", "warc_ts", "html"])
    out = scrape_dataset(ds, concurrency=2)
    import pyarrow.compute as pc

    for batch in out.select_columns(["status_code"]).iter_batches(batch_format="pyarrow"):
        assert pc.all(pc.equal(batch.column("status_code"), 200)).as_py()


def test_scrape_to_parquet_resumable(tmp_path):
    from raycrawl.extract import scrape_to_parquet

    corpus_dir = cached_corpus("feature", n_hosts=4, pages_per_host=8)
    out = str(tmp_path / "extracted")
    r1 = scrape_to_parquet(corpus_dir, out, concurrency=2)
    assert r1["buckets_done"] > 0 and r1["buckets_skipped"] == 0
    # rerun: every finished bucket is skipped, rows identical
    r2 = scrape_to_parquet(corpus_dir, out, concurrency=2)
    assert r2["buckets_done"] == 0
    assert r2["buckets_skipped"] == r1["buckets_done"]
    assert r2["rows"] == r1["rows"]
    # simulate a lost bucket → only that one is recomputed
    import shutil as _sh

    victim = sorted(os.listdir(out))[0]
    _sh.rmtree(os.path.join(out, victim))
    r3 = scrape_to_parquet(corpus_dir, out, concurrency=2)
    assert r3["buckets_done"] == 1
    assert r3["rows"] == r1["rows"]


def test_repeated_url_lru_skips_extraction():
    """VERDICT r3 item 8: the per-actor LRU (reference
    cache_service.py:37-99 analogue) must serve a second pass over the
    same corpus slice from cache — identical output rows, zero second
    extractions — and evict in LRU order when capacity is exceeded."""
    import pyarrow as pa

    from raycrawl.extract import PageExtractor
    from raycrawl.fixtures import feature_corpus

    corpus = feature_corpus(n_hosts=1, pages_per_host=12)
    batch = corpus.select(["url", "warc_ts", "html"]).slice(0, 12)

    ext = PageExtractor(cache_size=64)
    first = ext(batch)
    assert ext.cache_hits == 0 and ext.cache_misses == 12
    second = ext(batch)
    assert ext.cache_hits == 12 and ext.cache_misses == 12
    assert second.equals(first)  # byte-identical rows from cache

    # capacity 4 over 12 urls: a same-order re-pass misses every time
    # (each url was evicted before its second appearance) — LRU, not random
    small = PageExtractor(cache_size=4)
    small(batch)
    small(batch)
    assert small.cache_hits == 0 and small.cache_misses == 24
    assert len(small._cache) == 4

    # options are part of the key: a main-only and a full-page extractor
    # never share entries (different sha256(url|options))
    a = PageExtractor(only_main=True, cache_size=8)
    b = PageExtractor(only_main=False, cache_size=8)
    assert a._cache_key("https://x/p") != b._cache_key("https://x/p")

    # cache off by default: no counters move
    off = PageExtractor()
    off(batch)
    off(batch)
    assert off.cache_hits == 0 and off.cache_misses == 0


def test_scrape_dataset_cache_size_plumbed():
    """With ``cache_size`` on, a duplicated slice through one call yields
    cache-served rows equal to fresh rows."""
    import ray.data as rd

    from raycrawl.fixtures import feature_corpus

    corpus = feature_corpus(n_hosts=1, pages_per_host=8)
    t = corpus.select(["url", "warc_ts", "html"])
    doubled = rd.from_arrow(pa.concat_tables([t, t]))
    out = scrape_dataset(doubled, concurrency=1, batch_size=4,
                         cache_size=32).to_pandas()
    assert len(out) == 2 * t.num_rows
    one = out.sort_values("url").groupby("url").nth(0).reset_index(drop=True)
    two = out.sort_values("url").groupby("url").nth(1).reset_index(drop=True)
    assert one.drop(columns=["warc_ts"]).equals(two.drop(columns=["warc_ts"]))


def test_shared_cache_cross_actor_hits():
    """The cross-worker shared cache (reference Redis role,
    cache_service.py:37-99): a SECOND extractor instance with a cold
    local LRU must serve the whole batch from the shared actor —
    byte-identical rows, zero extractions — and the two levels compose
    (the shared hit is promoted into the local L1)."""
    import ray

    from raycrawl.cache import SharedExtractCache, SharedExtractCacheLocal
    from raycrawl.extract import PageExtractor
    from raycrawl.fixtures import feature_corpus

    corpus = feature_corpus(n_hosts=1, pages_per_host=12)
    batch = corpus.select(["url", "warc_ts", "html"]).slice(0, 12)

    shared = SharedExtractCache.remote(max_entries=1000)
    a = PageExtractor(cache_size=64, shared_cache=shared)
    first = a(batch)
    assert a.cache_misses == 12 and a.shared_cache_hits == 0
    ray.get(shared.ping.remote())  # drain the fire-and-forget put

    b = PageExtractor(cache_size=64, shared_cache=shared)  # cold L1
    second = b(batch)
    assert b.shared_cache_hits == 12 and b.cache_misses == 0
    assert second.equals(first)
    # promotion into L1: a third pass on b is local-only
    third = b(batch)
    assert b.cache_hits == 12 and b.shared_cache_hits == 12
    assert third.equals(first)
    st = ray.get(shared.stats.remote())
    assert st["entries"] == 12 and st["hits"] == 12

    # shared-only mode (cache_size=0) also works
    c = PageExtractor(cache_size=0, shared_cache=shared)
    assert c(batch).equals(first)
    assert c.shared_cache_hits == 12
    ray.kill(shared)

    # core semantics without Ray: TTL expiry + LRU bound
    import time as _t

    core = SharedExtractCacheLocal(max_entries=2, ttl_seconds=0.05)
    core.put_batch([b"k1", b"k2", b"k3"], [{"v": 1}, {"v": 2}, {"v": 3}])
    assert core.stats()["entries"] == 2 and core.stats()["evictions"] == 1
    assert core.get_batch([b"k1"]) == [None]      # evicted (LRU bound)
    assert core.get_batch([b"k3"]) == [{"v": 3}]
    _t.sleep(0.06)
    assert core.get_batch([b"k3"]) == [None]      # expired (TTL)


def _snapshots():
    """Two snapshots of one slice: same urls, each url's html from its
    neighbour in the second."""
    from raycrawl.fixtures import feature_corpus

    a = feature_corpus(n_hosts=1, pages_per_host=8).select(
        ["url", "warc_ts", "html"])
    html = a.column("html").to_pylist()
    b = a.set_column(2, "html", pa.array(html[1:] + html[:1], pa.binary()))
    return a, b


def _rows_by_url(ds) -> list:
    return sorted(ds.take_all(), key=lambda r: r["url"])


def test_scrape_dataset_cache_scoped_to_one_call():
    """A worker's L1 cache lasts one scrape_dataset call: a second call
    over a new snapshot of the same urls gets that snapshot's rows."""
    import ray.data as rd

    from raycrawl.extract import PageExtractor

    for snap in _snapshots():
        got = _rows_by_url(scrape_dataset(rd.from_arrow(snap), concurrency=1,
                                          batch_size=4, cache_size=32))
        want = sorted(PageExtractor()(snap).to_pylist(),
                      key=lambda r: r["url"])
        assert got == want


def test_scrape_dataset_shared_cache_serves_second_call():
    """The shared (L2) cache outlives a call: a second scrape_dataset over
    the same slice is served from it, with rows equal to the first."""
    import time

    import ray.data as rd

    from raycrawl.cache import SharedExtractCache

    snap, _ = _snapshots()
    n = snap.num_rows
    shared = SharedExtractCache.remote(max_entries=1000)

    def scrape():
        return _rows_by_url(scrape_dataset(rd.from_arrow(snap), concurrency=1,
                                           batch_size=4, shared_cache=shared))

    first = scrape()
    deadline = time.monotonic() + 30  # the workers' puts are fire-and-forget
    while ray.get(shared.stats.remote())["entries"] < n:
        assert time.monotonic() < deadline
        time.sleep(0.05)
    assert ray.get(shared.stats.remote())["hits"] == 0
    assert scrape() == first
    assert ray.get(shared.stats.remote())["hits"] == n
    ray.kill(shared)
