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


def test_scrape_dataset_rows_follow_each_snapshot():
    """Task workers are reused across calls and keep nothing from one:
    a second call over a new snapshot of the same urls gets that
    snapshot's rows."""
    import ray.data as rd

    from raycrawl.extract import PageExtractor

    for snap in _snapshots():
        got = _rows_by_url(scrape_dataset(rd.from_arrow(snap), concurrency=1,
                                          batch_size=4))
        want = sorted(PageExtractor()(snap).to_pylist(),
                      key=lambda r: r["url"])
        assert got == want
