"""The crawl's corpus reader (``raycrawl.pipeline.CorpusReader``): it must
return exactly what a filtered ``pq.read_table`` returns, and no fetch
state may outlive the crawl that built it."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from raycrawl.fixtures import feature_corpus, write_corpus
from raycrawl.metrics import render_prometheus
from raycrawl.pipeline import (EXTRACT_COUNTERS, FETCH_COUNTERS,
                               CorpusReader, CrawlConfig, WaveWorker,
                               _by_bucket, _corpus_files, crawl, wave_table)

WARC_COLUMNS = ["url", "warc_ts", "html"]


def _pages() -> pa.Table:
    """A small PAGES table with some urls stored twice."""
    t = feature_corpus(n_hosts=3, pages_per_host=12)
    return pa.concat_tables([t, t.take([0, 5, 5, 17])])


def _filtered(path, columns, urls):
    return pq.read_table(path, columns=columns, filters=[("url", "in", urls)])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One file per row-group size; all hold the same rows."""
    d = tmp_path_factory.mktemp("reader")
    t = _pages()
    out = {}
    for rg_rows in (3, 7, 1 << 20):
        out[rg_rows] = str(d / f"rg{rg_rows}.parquet")
        pq.write_table(t, out[rg_rows], row_group_size=rg_rows)
    assert pq.ParquetFile(out[3]).num_row_groups > 10
    return out


def _assert_same(got, want):
    if want.num_rows == 0:
        assert got is None
        return
    assert got.schema.types == want.schema.types
    assert got.column_names == want.column_names
    assert got.to_pylist() == want.to_pylist()


_ALL_URLS = _pages().column("url").unique().to_pylist()
_URLS = st.lists(st.one_of(st.sampled_from(_ALL_URLS),
                           st.just("https://h0.example/missing.html")),
                 min_size=1, max_size=20)


_COLUMNS = st.sampled_from([["url", "html"], WARC_COLUMNS, ["url", "text"]])


@given(st.sampled_from([3, 7, 1 << 20]),
       st.lists(st.tuples(_COLUMNS, _URLS), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_reader_equals_filtered_read_table(files, rg_rows, reads):
    """Consecutive reads on one reader (so the later ones reuse row groups)
    each equal ``pq.read_table`` with an ``in`` filter, row for row and in
    file order: missing urls, urls asked twice, urls stored twice and a
    column set that changes between reads included."""
    path = files[rg_rows]
    reader = CorpusReader()
    for columns, urls in reads:
        _assert_same(reader.read([([path], urls)], columns),
                     _filtered(path, columns, urls))


def test_reader_groups_span_files_in_order(files):
    """Several (paths, urls) groups: rows come back path by path in group
    order, each path filtered by its own group's urls."""
    a, b, c = files[3], files[7], files[1 << 20]
    g1, g2 = _ALL_URLS[2:9], _ALL_URLS[20:24] + _ALL_URLS[:2]
    reader = CorpusReader()
    got = reader.read([([a, b], g1), ([c, a], g2)], WARC_COLUMNS)
    want = pa.concat_tables([_filtered(a, WARC_COLUMNS, g1),
                             _filtered(b, WARC_COLUMNS, g1),
                             _filtered(c, WARC_COLUMNS, g2),
                             _filtered(a, WARC_COLUMNS, g2)])
    _assert_same(got, want)


def test_reader_counters_and_reuse(tmp_path):
    """Rows 0-8 in row groups of three; url u4 stored twice (rows 4, 9)."""
    path = str(tmp_path / "small.parquet")
    urls = [f"https://h.example/u{i}" for i in range(9)] + ["https://h.example/u4"]
    pq.write_table(pa.table({"url": urls, "html": [b"x"] * 10}), path,
                   row_group_size=3)
    reader = CorpusReader()

    def read(*picked):
        return reader.read([([path], [urls[i] for i in picked])],
                           ["url", "html"]).num_rows

    assert read(0, 1) == 2
    assert reader.counters == {"row_groups_decoded": 1, "row_groups_reused": 0,
                               "rows_decoded": 3, "pages_fetched": 2}
    assert read(2, 4) == 3  # group 0 reused, groups 1 and 3 decoded
    assert reader.counters == {"row_groups_decoded": 3, "row_groups_reused": 1,
                               "rows_decoded": 7, "pages_fetched": 5}
    assert read(7) == 1     # group 2 decoded
    assert read(0) == 1     # group 0 reused from two reads back
    assert read(6) == 1     # group 2 reused
    assert reader.counters == {"row_groups_decoded": 4, "row_groups_reused": 3,
                               "rows_decoded": 10, "pages_fetched": 8}
    assert read(3) == 1     # group 1 was last used three reads back
    assert reader.counters == {"row_groups_decoded": 5, "row_groups_reused": 3,
                               "rows_decoded": 13, "pages_fetched": 9}


def test_reader_on_unpartitioned_single_file_corpus(tmp_path):
    path = str(tmp_path / "corpus.parquet")
    pq.write_table(_pages(), path, row_group_size=5)
    files_by_bucket, num_buckets = _corpus_files(path)
    assert num_buckets is None
    urls = _ALL_URLS[::3] + ["https://h9.example/nope"]
    groups = [(files_by_bucket[b], u)
              for b, u in _by_bucket(urls, num_buckets).items()]
    _assert_same(CorpusReader().read(groups, WARC_COLUMNS),
                 _filtered(path, WARC_COLUMNS, urls))
    assert CorpusReader().read(groups, ["url"]).num_rows == \
        _filtered(path, ["url"], urls).num_rows
    assert CorpusReader().read([([path], ["https://h9.example/nope"])],
                               ["url", "html"]) is None


def test_rewritten_corpus_is_read_again_by_pooled_worker(tmp_path):
    """Two crawls on the same pooled worker: the first crawl's open files,
    url columns and decoded row groups are not used by the second, so an
    unchanged corpus gives the same fetch counters and a rewritten file is
    read afresh. The worker's extract counters start from zero for each
    crawl and count every page it fetched."""
    corpus = str(tmp_path / "corpus")
    write_corpus(feature_corpus(n_hosts=2, pages_per_host=24), corpus)
    seed = "https://h0.example/d0/p0.html"

    def run(name):
        cfg = CrawlConfig(seed_url=seed, max_depth=3, max_pages=40,
                          exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                          num_shards=2, wave_budget=8, extract_concurrency=1,
                          batch_size=4, out_dir=str(tmp_path / name))
        return crawl(corpus, cfg)

    first, second = run("a"), run("b")
    assert first.stats["fetch"] == second.stats["fetch"]
    fetch = first.stats["fetch"]
    assert fetch["pages_fetched"] == first.stats["pages_success"] + \
        first.stats["pages_failed"]
    assert fetch["row_groups_decoded"] > 0 and fetch["row_groups_reused"] > 0
    assert fetch["rows_decoded"] >= fetch["row_groups_decoded"]
    spec = first.stats["speculation"]
    assert spec["hit_pages"] > 0 and spec["wasted_pages"] == 0
    assert spec["hit_pages"] + spec["extra_pages"] == fetch["pages_fetched"]
    text = render_prometheus(first.stats)
    for key, value in fetch.items():
        assert f"raycrawl_fetch_{key}_total {value}\n" in text
    extract = first.stats["extract"]
    assert extract["pages"] == fetch["pages_fetched"]
    assert 0 < extract["tasks"] <= extract["pages"]
    assert extract["cpu_s"] > 0
    assert second.stats["extract"]["pages"] == extract["pages"]
    assert second.stats["extract"]["tasks"] == extract["tasks"]
    assert f"raycrawl_extract_pages_total {extract['pages']}\n" in text
    assert f"raycrawl_extract_tasks_total {extract['tasks']}\n" in text
    assert "raycrawl_extract_cpu_seconds_total " in text

    # rewrite the seed's bucket file in place with a new seed page body
    seed_file = next(f for f in glob.glob(os.path.join(corpus, "*", "*.parquet"))
                     if seed in pq.read_table(f, columns=["url"])
                     .column("url").to_pylist())
    t = pq.read_table(seed_file)
    is_seed = pc.equal(t.column("url"), seed)
    body = b"<html><head><title>Rewritten</title></head><body><p>new</p></body></html>"
    html = pc.if_else(is_seed, pa.scalar(body, pa.binary()), t.column("html"))
    pq.write_table(t.set_column(t.column_names.index("html"), "html", html),
                   seed_file)

    third = run("c").results()
    assert third.column("url").to_pylist() == [seed]
    assert third.column("title").to_pylist() == ["Rewritten"]
    assert first.results().column("title").to_pylist()[0] != "Rewritten"


def test_prometheus_exports_speculation_and_phases():
    stats = {"speculation": {"hit_pages": 7, "extra_pages": 3,
                             "wasted_pages": 1},
             "phase_sec": {"pop": 0.25, "fetch_extract": 1.5}}
    text = render_prometheus(stats)
    for key, value in stats["speculation"].items():
        assert f"raycrawl_speculation_{key}_total {value}\n" in text
    assert "# TYPE raycrawl_crawl_phase_seconds gauge\n" in text
    assert 'raycrawl_crawl_phase_seconds{phase="pop"} 0.25\n' in text
    assert 'raycrawl_crawl_phase_seconds{phase="fetch_extract"} 1.5\n' in text
    assert text.count("# HELP raycrawl_crawl_phase_seconds ") == 1


def test_worker_fetch_state_is_per_token(tmp_path):
    """Calls with one token share a reader; a new token starts a fresh one,
    so a file rewritten in between is read again; ``end_crawl`` returns the
    token's fetch and extract counters once and drops the state."""
    path = str(tmp_path / "one.parquet")
    url = "https://h.example/p.html"

    def write(title):
        html = f"<html><head><title>{title}</title></head><body><p>x</p></body></html>"
        pq.write_table(pa.table({"url": [url], "html": [html.encode()]}), path)

    def title(token):
        out = ray.get(worker.process.remote([([path], [url])], token=token))
        return wave_table(out).column("title").to_pylist()

    worker = WaveWorker.remote(frozenset({"h.example"}), None, None, True)
    write("one")
    assert title("a") == ["one"] and title("a") == ["one"]
    write("two")
    assert title("b") == ["two"]
    assert ray.get(worker.end_crawl.remote("a")) == {
        "fetch": dict.fromkeys(FETCH_COUNTERS, 0),
        "extract": dict.fromkeys(EXTRACT_COUNTERS, 0)}
    assert title("c") == ["two"]
    counters = ray.get(worker.end_crawl.remote("c"))
    assert counters["fetch"] == {
        "row_groups_decoded": 1, "row_groups_reused": 0, "rows_decoded": 1,
        "pages_fetched": 1}
    assert counters["extract"]["tasks"] == 1
    assert counters["extract"]["pages"] == 1
    assert counters["extract"]["cpu_s"] > 0
    assert ray.get(worker.end_crawl.remote("c"))["fetch"]["pages_fetched"] == 0
    ray.kill(worker)
