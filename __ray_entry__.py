"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in raycrawl) calls ray.init()/ray.shutdown().

``queries()`` covers the SURVEY.md §2 operator inventory: the crawl/extract
pipelines run over a deterministic pages corpus in the BASELINE.json
input_hint shape (synthesized from the driver's ``documents`` table or the
FIXTURES.md feature matrix — no external data); training-data ops (dedup /
similarity / text analysis) and converters run over the sf tables. EVERY
query has an exact DuckDB oracle with matching column names — including
the formerly rows-only ops: the crawl state machine is
compared against the independent single-threaded conformance model
materialized as parquet; MinHash pairs against brute-force n-gram Jaccard;
simhash/winnowing recomputed bit-exactly via md5-keyed SQL; k-means as
unrolled int64 Lloyd iterations; the sentence chunker's packing fold as a
recursive CTE; converters against closed-form expected markdown.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
import sys

if _REPO not in sys.path:
    sys.path.insert(0, _REPO)


# --- build-time ledger (VERDICT r4 item 2) ---------------------------------
# One-off fixture/index cache builds are accounted here so bench.py can
# report build_sec separately from steady-state query time — a source-keyed
# cache miss (e.g. convert_pdf's 5,000-file fixture rebuild after a
# converter edit) otherwise lands inside the timed query run.

_BUILD_SEC = {"current": 0.0}


def _timed_build():
    import time as _time
    from contextlib import contextmanager

    @contextmanager
    def cm():
        t0 = _time.perf_counter()
        try:
            yield
        finally:
            _BUILD_SEC["current"] += _time.perf_counter() - t0

    return cm()


def pop_build_sec() -> float:
    """Return and reset the build seconds accumulated since the last call
    (bench.py calls this after each query to split build vs query time)."""
    v = _BUILD_SEC["current"]
    _BUILD_SEC["current"] = 0.0
    return round(v, 3)


def _docs_corpus(sf_dir: str) -> str:
    from raycrawl.fixtures import cached_corpus

    with _timed_build():
        return cached_corpus("documents", sf_dir=sf_dir)


def _feature_corpus_dir() -> str:
    from raycrawl.fixtures import cached_corpus
    from raycrawl.gen_golden import T2

    with _timed_build():
        return cached_corpus("feature", **T2)


def _crawl_oracle_dir() -> str:
    """Materialize the single-threaded conformance oracle's crawl order and
    seen set (raycrawl/oracle.py — an independent serial model of the
    reference BFS that shares none of the distributed frontier machinery)
    as Parquet, so the driver's DuckDB oracle can compare the Ray engine's
    crawl_bfs/crawl_seen output value-for-value against it. Cached keyed by
    the sources that define the semantics; called from oracle_sql() so the
    files exist regardless of query/oracle evaluation order."""
    import hashlib

    import raycrawl.extract
    import raycrawl.fixtures
    import raycrawl.gen_golden
    import raycrawl.oracle

    h = hashlib.sha1()
    # gen_golden carries SEED/T2/CRAWL_KW; the polite-config constants live
    # in this module — all are semantics-defining for the cached parquet
    # (ADVICE r2: omitting them silently reused stale oracle output)
    for mod in (raycrawl.oracle, raycrawl.fixtures, raycrawl.extract,
                raycrawl.gen_golden):
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    h.update(repr((_POLITE_SEEDS, sorted(_POLITE_KW.items()),
                   sorted(_PRIORITY_KW.items()))).encode())
    # version tag for the builder itself (this module is not in the mod
    # hash above); bump when _build_crawl_oracle's outputs change
    h.update(b"oracle-v5:corpus_digest")
    out_dir = f"/tmp/raycrawl_oracle/{h.hexdigest()[:12]}"
    from raycrawl.staging import atomic_build_dir, is_complete

    if is_complete(out_dir):
        return out_dir
    return atomic_build_dir(out_dir, _build_crawl_oracle)


def _build_crawl_oracle(out_dir: str) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raycrawl.fixtures import feature_corpus
    from raycrawl.gen_golden import CRAWL_KW, SEED, T2
    from raycrawl.oracle import crawl_oracle

    res = crawl_oracle(feature_corpus(**T2), SEED, **CRAWL_KW)
    pq.write_table(
        pa.table({"seq": pa.array([p.seq for p in res.pages], pa.int64()),
                  "depth": pa.array([p.depth for p in res.pages], pa.int32()),
                  "url": pa.array([p.url for p in res.pages], pa.string()),
                  "parent_url": pa.array([p.parent_url or "" for p in res.pages],
                                         pa.string())}),
        os.path.join(out_dir, "crawl_bfs.parquet"))
    pq.write_table(
        pa.table({"url": pa.array([u for (u, _, _, _) in res.seen], pa.string()),
                  "depth": pa.array([d for (_, d, _, _) in res.seen], pa.int32()),
                  "seq": pa.array([s for (_, _, s, _) in res.seen], pa.int64())}),
        os.path.join(out_dir, "crawl_seen.parquet"))
    # ST5/ST6 conformance: multi-seed + per-host politeness token buckets
    # (rate 2 pops/host/wave) + per-host robots — the serial model's
    # (seq, depth, url) assignments; row order is processing order, which
    # differs from the engine's seq order under throttling, so the compare
    # is on the (order-insensitive) value sets as the driver does
    pres = crawl_oracle(feature_corpus(**T2), _POLITE_SEEDS,
                        wave_budget=256, politeness_rate=2.0, **_POLITE_KW)
    pq.write_table(
        pa.table({"seq": pa.array([p.seq for p in pres.pages], pa.int64()),
                  "depth": pa.array([p.depth for p in pres.pages], pa.int32()),
                  "url": pa.array([p.url for p in pres.pages], pa.string())}),
        os.path.join(out_dir, "crawl_polite.parquet"))
    # best-first frontier conformance: pop order (url_priority(url), seq)
    # under a 40-page budget — serial model's priority branch, with the
    # pop index recorded so the order itself is value-checked
    from raycrawl.gen_golden import url_priority
    prio_res = crawl_oracle(feature_corpus(**T2), SEED, wave_budget=16,
                            priority_fn=url_priority, **_PRIORITY_KW)
    pq.write_table(
        pa.table({"pop_rank": pa.array(range(len(prio_res.pages)), pa.int64()),
                  "seq": pa.array([p.seq for p in prio_res.pages], pa.int64()),
                  "depth": pa.array([p.depth for p in prio_res.pages], pa.int32()),
                  "url": pa.array([p.url for p in prio_res.pages], pa.string())}),
        os.path.join(out_dir, "crawl_priority.parquet"))
    # corpus payload digests for the WARC-sink conformance query: what a
    # correct archive of any crawl over this corpus must contain per url
    corpus_tbl = feature_corpus(**T2)
    htmls = corpus_tbl.column("html").to_pylist()
    htmls = [h.encode() if isinstance(h, str) else h for h in htmls]
    pq.write_table(
        pa.table({
            "url": corpus_tbl.column("url").cast(pa.string()),
            "n_bytes": pa.array([len(h) for h in htmls], pa.int64()),
            "sha1hex": pa.array([__import__("hashlib").sha1(h).hexdigest()
                                 for h in htmls], pa.string())}),
        os.path.join(out_dir, "corpus_digest.parquet"))


_POLITE_SEEDS = ["https://h0.example/d0/p0.html", "https://h1.example/d0/p0.html"]
_POLITE_KW = dict(max_depth=3, max_pages=60,
                  exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                  respect_robots=True)
_PRIORITY_KW = dict(max_depth=3, max_pages=40,
                    exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                    respect_robots=False)


# ---------------------------------------------------------------------------
# entry: flagship pipeline (read → actor-pool extract → columns)
# ---------------------------------------------------------------------------

def entry() -> Any:
    import ray.data as rd

    from raycrawl.extract import scrape_dataset

    corpus = _docs_corpus("/root/testdata/sf0.001")
    pages = rd.read_parquet(corpus, columns=["url", "warc_ts", "html"])
    extracted = scrape_dataset(pages, concurrency=_pool(0.5), batch_size=32)
    return extracted.select_columns(
        ["url", "title", "language", "status_code", "markdown"])


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _pool(frac: float = 0.5) -> int:
    """Actor-pool size that leaves CPUs for read/shuffle tasks — a pool
    that reserves every CPU starves the producer stage and deadlocks."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4))
    return max(1, int(cpus * frac))


def _q_extract_pages(sf_dir: str):
    """E2E extraction over the documents-derived corpus, projected to
    SQL-checkable columns (title/language are deterministic functions of the
    documents table)."""
    import ray.data as rd

    from raycrawl.extract import scrape_dataset

    pages = rd.read_parquet(_docs_corpus(sf_dir), columns=["url", "warc_ts", "html"])
    out = scrape_dataset(pages, concurrency=_pool(0.5), batch_size=64)
    return out.select_columns(["title", "language", "status_code"]).to_pandas()


def _q_extract_links(sf_dir: str):
    """Link extraction E2E: exploded (src_doc_id, dst_doc_id) edges parsed
    back from the extracted links of the documents corpus (vectorized
    Arrow list explode — VERDICT r2 item 8 — shared with link_pagerank
    via _edges_dataset)."""
    df = _edges_dataset(sf_dir).to_pandas()
    return df.rename(columns={"src": "src_doc_id", "dst": "dst_doc_id"})


def _q_crawl_bfs(sf_dir: str):
    from raycrawl.gen_golden import CRAWL_KW, SEED
    from raycrawl.pipeline import CrawlConfig, crawl

    out_dir = f"/tmp/raycrawl_q/crawl_bfs_{os.path.basename(os.path.normpath(sf_dir))}"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(seed_url=SEED, num_shards=4, out_dir=out_dir, **CRAWL_KW)
    outcome = crawl(_feature_corpus_dir(), cfg)
    df = outcome.results().select(["seq", "depth", "url", "parent_url"]).to_pandas()
    df["parent_url"] = df["parent_url"].fillna("")  # seed row; '' in the oracle
    return df


def _q_dup_ngrams(sf_dir: str):
    """Cross-document duplicated-5-gram fraction (RefinedWeb/MassiveText
    corpus-quality metric): per doc, the share of its 5-gram occurrences
    whose gram appears in ≥2 distinct docs. Exact distributed shape —
    grams shuffled as strings through coarse partitions; the oracle
    recomputes document frequencies and the identical integer/DOUBLE
    arithmetic in SQL."""
    import ray.data as rd

    from raycrawl.ops.textstats import dup_ngram_stats

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return dup_ngram_stats(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_anchor_texts(sf_dir: str):
    """Anchor-text index (the classic web-scale anchor corpus — link-based
    labels / retrieval pairs): parse every page's <a href> anchors,
    aggregate per TARGET into (n_anchors, sorted-distinct labels). The
    corpus link lattice is a closed-form function of doc_id (4-ary tree
    per host, 'next {rank}' labels), so the oracle reconstructs the whole
    table in SQL."""
    import ray.data as rd

    from raycrawl.ops.graph import anchor_text_index

    pages = rd.read_parquet(_docs_corpus(sf_dir), columns=["url", "html"])
    out = anchor_text_index(pages).to_pandas()
    out["doc_id"] = (out["dst_url"].str.extract(r"/doc(\d+)\.html$")
                     .astype("int64"))
    return (out[["doc_id", "n_anchors", "anchor_texts"]]
            .sort_values("doc_id").reset_index(drop=True))


def _q_crawl_warc(sf_dir: str):
    """End-to-end crawl→WARC sink (VERDICT r4 item 7): the BFS crawl with
    sink='warc' archives every fetched page as Common-Crawl-layout
    .warc.gz per wave; reading the archives back (sha1 payload digests
    VERIFIED during parse) must yield exactly the crawled url set with
    byte-identical payloads. Oracle = the serial model's crawl order
    joined to independently computed corpus payload digests."""
    import hashlib
    import shutil

    import pandas as pd

    from raycrawl.gen_golden import CRAWL_KW, SEED
    from raycrawl.pipeline import CrawlConfig, crawl
    from raycrawl.warc import read_warc

    out_dir = ("/tmp/raycrawl_q/crawl_warc_"
               f"{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(seed_url=SEED, num_shards=4, out_dir=out_dir,
                      sink="warc", **CRAWL_KW)
    outcome = crawl(_feature_corpus_dir(), cfg)

    def digest(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "url": b["url"],
            "n_bytes": [len(h) for h in b["html"]],
            "sha1hex": [hashlib.sha1(h).hexdigest() for h in b["html"]]})

    return (read_warc(outcome.stats["warc_dir"], verify_digest=True)
            .map_batches(digest, batch_format="pandas").to_pandas()
            .sort_values("url").reset_index(drop=True))


def _q_crawl_seen(sf_dir: str):
    from raycrawl.gen_golden import CRAWL_KW, SEED
    from raycrawl.pipeline import CrawlConfig, crawl

    out_dir = f"/tmp/raycrawl_q/crawl_seen_{os.path.basename(os.path.normpath(sf_dir))}"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(seed_url=SEED, num_shards=4, out_dir=out_dir, **CRAWL_KW)
    outcome = crawl(_feature_corpus_dir(), cfg)
    return outcome.seen().select(["url", "depth", "seq"])


def _q_crawl_politeness(sf_dir: str):
    """Multi-seed crawl under per-host politeness throttling (2 pops/host/
    wave) + per-host robots: the sharded frontier's (seq, depth, url)
    assignments must equal the serial reference model's — the ST5/ST6
    token-bucket and robots semantics checked end-to-end by the driver."""
    import shutil

    from raycrawl.pipeline import CrawlConfig, crawl

    out_dir = ("/tmp/raycrawl_q/crawl_polite_"
               f"{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(seed_url=_POLITE_SEEDS, num_shards=4, wave_budget=256,
                      politeness_rate=2.0, politeness_burst=2.0,
                      out_dir=out_dir, **_POLITE_KW)
    outcome = crawl(_feature_corpus_dir(), cfg)
    return outcome.results().select(["seq", "depth", "url"])


def _q_chunk_semantic(sf_dir: str):
    import ray.data as rd

    from raycrawl.chunker import ChunkStage
    from raycrawl.extract import scrape_dataset

    import pandas as pd

    pages = rd.read_parquet(_docs_corpus(sf_dir), columns=["url", "warc_ts", "html"])
    extracted = scrape_dataset(pages, concurrency=_pool(0.4), batch_size=64)
    chunks = extracted.select_columns(["url", "markdown"]).map_batches(
        ChunkStage, batch_format="pyarrow", concurrency=_pool(0.3))
    df = chunks.select_columns(
        ["url", "position", "chunk_type", "word_count"]).to_pandas()
    df["doc_id"] = df["url"].str.extract(r"/doc(\d+)\.html$").astype("int64")
    return df[["doc_id", "position", "chunk_type", "word_count"]]


def _edges_dataset(sf_dir: str):
    """(src_doc_id, dst_doc_id) edge Dataset extracted from the corpus
    HTML — the real extract pipeline, shared by extract_links and
    link_pagerank."""
    import ray.data as rd

    from raycrawl.extract import scrape_dataset

    pages = rd.read_parquet(_docs_corpus(sf_dir),
                            columns=["url", "warc_ts", "html"])
    out = scrape_dataset(pages, concurrency=_pool(0.5), batch_size=64)

    def explode(batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        import pyarrow.compute as pc

        links = batch.column("links").combine_chunks()
        if isinstance(links, pa.ChunkedArray):
            links = links.chunk(0) if links.num_chunks else pa.array(
                [], pa.list_(pa.string()))
        src_ids = pc.extract_regex(batch.column("url"),
                                   r"/doc(?P<id>\d+)\.html$")
        src_ids = pc.cast(pc.struct_field(src_ids, "id"), pa.int64())
        flat = links.flatten()
        parent = links.value_parent_indices()
        src = pc.take(src_ids, parent)
        dst_m = pc.extract_regex(flat, r"/doc(?P<id>\d+)\.html$")
        dst = pc.cast(pc.struct_field(dst_m, "id"), pa.int64())
        keep = pc.and_kleene(pc.is_valid(src), pc.is_valid(dst))
        return pa.table({"src": pc.filter(src, keep),
                         "dst": pc.filter(dst, keep)})

    return out.select_columns(["url", "links"]).map_batches(
        explode, batch_format="pyarrow")


def _q_link_pagerank(sf_dir: str):
    """Distributed integer fixed-point PageRank over the link graph the
    extract stage pulls out of the corpus HTML — the frontier-priority
    signal a 10^10-URL crawl ranks hosts by (raycrawl/ops/graph.py). The
    oracle unrolls the identical floor-division recurrence as SQL CTEs
    over the lattice-derived edge set."""
    import pyarrow.parquet as pq

    from raycrawl.ops.graph import pagerank

    nodes = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id"]).column("doc_id").to_pylist()
    ranks = pagerank(_edges_dataset(sf_dir), nodes, num_iters=5,
                     scale=10**12)
    return ranks.rename(columns={"node": "doc_id"})


def _q_graph_components(sf_dir: str):
    """Distributed connected components (hash-min label propagation) over
    the extracted link graph. Each host's 4-ary lattice is one tree, so
    the exact components are the host partitions — min-doc-id-per-host in
    SQL (raycrawl/ops/graph.py::connected_components)."""
    import pyarrow.parquet as pq

    from raycrawl.ops.graph import connected_components

    nodes = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id"]).column("doc_id").to_pylist()
    cc = connected_components(_edges_dataset(sf_dir), nodes)
    return cc


def _q_graph_hits(sf_dir: str):
    """Distributed integer fixed-point HITS hubs & authorities over the
    extracted link graph — the query-independent companion to PageRank
    for frontier prioritization (a high-hub page's outlinks are worth
    admitting even when the page itself ranks low). Oracle unrolls the
    identical sum-normalized floor-division recurrence as SQL CTEs over
    the lattice edge set (raycrawl/ops/graph.py::hits)."""
    import pyarrow.parquet as pq

    from raycrawl.ops.graph import hits

    nodes = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id"]).column("doc_id").to_pylist()
    out = hits(_edges_dataset(sf_dir), nodes, num_iters=5, scale=10**6)
    return out.rename(columns={"node": "doc_id"})


def _q_link_bfs_depth(sf_dir: str):
    """Multi-source BFS over the extracted link graph: shortest hop
    count from the seed set (doc_id % 97 = 1 — the backlinks target
    convention) for every page within 8 hops. Level-synchronous, exact
    under either placement; the oracle unrolls the same
    levels over the lattice edge CTE
    (raycrawl/ops/graph.py::bfs_distance)."""
    import pyarrow.parquet as pq

    from raycrawl.ops.graph import bfs_distance

    nodes = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id"]).column("doc_id").to_numpy()
    seeds = nodes[nodes % 97 == 1]
    out = bfs_distance(_edges_dataset(sf_dir), nodes, seeds, max_depth=8)
    return out.rename(columns={"node": "doc_id"})


def _q_host_rank_mass(sf_dir: str):
    """Politeness-budget allocation signal: total PageRank mass per host
    (pagerank → 16-host aggregate — the composition a scheduler runs)."""
    ranks = _q_link_pagerank(sf_dir)
    ranks["h"] = ranks["doc_id"] % 16
    out = ranks.groupby("h", as_index=False)["rank_fp"].sum()
    return out.rename(columns={"rank_fp": "rank_mass"})


def _q_crawl_delta(sf_dir: str):
    """Recrawl freshness delta: snapshot v2 = deterministic mutation of
    the documents table (1-in-13 pages removed, 1-in-5 texts edited,
    1-in-11 new pages); one coarse-partition shuffle classifies every url
    as added/removed/changed (raycrawl/ops/delta.py::snapshot_delta)."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.delta import snapshot_delta

    path = os.path.join(sf_dir, "documents.parquet")
    old = rd.read_parquet(path, columns=["doc_id", "text"])

    def mutate(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[b["doc_id"] % 13 != 7].copy()
        edited = keep["doc_id"] % 5 == 0
        keep.loc[edited, "text"] = (
            keep.loc[edited, "text"].fillna("") + " v2")
        added = b[b["doc_id"] % 11 == 0]
        new_rows = pd.DataFrame({
            # offset far above any real doc_id (documents are dense small
            # ints; 2^40 keeps int64 headroom) — review finding: +1M would
            # collide once the table reaches 10^6 rows
            "doc_id": added["doc_id"] + (1 << 40),
            "text": "new page " + added["doc_id"].astype(str),
        })
        return pd.concat([keep, new_rows], ignore_index=True)

    new = rd.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        mutate, batch_format="pandas")
    return snapshot_delta(old, new, key="doc_id",
                          payload="text").to_pandas()


def _q_url_templates(sf_dir: str):
    """URL pattern mining — the crawl-trap / infinite-calendar detector:
    collapse digit runs in the PATH (host kept verbatim) and count pages
    per template. Vectorized pandas regex per batch, map-side combine +
    merge via ops/agg.aggregate_partials."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.agg import aggregate_partials

    urls = rd.read_parquet(_docs_corpus(sf_dir), columns=["url"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        parts = b["url"].str.extract(r"^https://([^/]+)(/.*)$")
        tmpl = parts[0] + parts[1].str.replace(r"[0-9]+", "N", regex=True)
        g = tmpl.to_frame("template").groupby(
            "template", as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    out = aggregate_partials(urls, partial, keys=["template"],
                             agg_spec={"cnt": "sum"})
    return out.sort_values(["cnt", "template"],
                           ascending=[False, True]).reset_index(drop=True)


def _q_bigram_commonness(sf_dir: str):
    """Two-pass conditional (bigram) LM-filter shape: corpus bigram counts
    → broadcast → per-doc bigram-frequency stats (exact integers —
    raycrawl/ops/textstats.py::bigram_commonness)."""
    import ray.data as rd

    from raycrawl.ops.textstats import bigram_commonness

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return bigram_commonness(docs).to_pandas()


def _q_link_backlinks(sf_dir: str):
    """Who-links-here: stage the reverse link graph bucket-partitioned
    (graph.py::build_backlink_index), then answer an in-link lookup for a
    deterministic target subset reading only the targets' buckets."""
    import hashlib

    import pyarrow.parquet as pq

    from raycrawl.ops import graph as G

    import raycrawl.extract
    import raycrawl.links

    corpus = _docs_corpus(sf_dir)
    h = hashlib.sha1()
    # the staged edges depend on the corpus AND the link-extraction code
    # (ADVICE r2 lesson: cache keys must cover every semantics source)
    for mod in (G, raycrawl.extract, raycrawl.links):
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    idx_dir = (f"/tmp/raycrawl_blidx/{os.path.basename(corpus)}_"
               f"{h.hexdigest()[:8]}")
    with _timed_build():
        G.build_backlink_index(_edges_dataset(sf_dir), idx_dir)
    doc_ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id"]).column("doc_id").to_pylist()
    targets = [d for d in doc_ids if d % 97 == 1]
    out = G.backlinks(idx_dir, targets).to_pandas()
    return out.rename(columns={"dst": "dst_doc_id", "src": "src_doc_id"})


def _q_recrawl_schedule(sf_dir: str):
    """Freshness scheduler: which 100 pages to refetch next. Score =
    staleness (seconds since warc_ts at a fixed reference instant) ×
    PageRank importance, exact int64; distributed per-batch top-k
    partials + tiny driver merge."""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data as rd

    from raycrawl.ops.graph import pagerank

    import pyarrow.parquet as pq

    nodes = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id"]).column("doc_id").to_pylist()
    ranks = pagerank(_edges_dataset(sf_dir), nodes, num_iters=5,
                     scale=10**12)
    rank_ref = ray.put({
        "ids": ranks["node"].to_numpy(np.int64),
        "r": ranks["rank_fp"].to_numpy(np.int64)})
    ref_us = pd.Timestamp("2025-07-01").value // 1000  # fixed instant
    k = 100

    def partial_topk(b: pd.DataFrame, ref=rank_ref) -> pd.DataFrame:
        from raycrawl.ops.graph import _pos

        st = ray.get(ref)
        doc_id = (b["url"].str.extract(r"/doc(\d+)\.html$")[0]
                  .astype("int64").to_numpy())
        age_sec = ((ref_us - b["warc_ts"].astype("int64").to_numpy())
                   // 1_000_000)
        at = _pos(st["ids"], doc_id)
        if (at < 0).any():
            raise ValueError("recrawl_schedule: a page outside the link "
                             "graph's node universe")
        r = st["r"][at]
        score = age_sec * r
        out = pd.DataFrame({"doc_id": doc_id, "score": score})
        return out.sort_values(["score", "doc_id"],
                               ascending=[False, True]).head(k)

    corpus = rd.read_parquet(_docs_corpus(sf_dir),
                             columns=["url", "warc_ts"])
    parts = corpus.map_batches(partial_topk, batch_format="pandas",
                               batch_size=65536).to_pandas()
    return (parts.sort_values(["score", "doc_id"],
                              ascending=[False, True])
            .head(k).reset_index(drop=True))


def _pagerank_oracle(num_iters: int = 5, scale: int = 10**12,
                     final: str | None = None) -> str:
    """SQL mirror of ops/graph.py::pagerank — the 4-ary lattice edges via
    window functions, then the exact integer recurrence unrolled.
    ``final`` overrides the terminal SELECT (e.g. host aggregation)."""
    sql = [
        "WITH ranked AS (SELECT doc_id, doc_id % 16 AS h, "
        " row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id) - 1 AS rnk "
        " FROM documents), "
        "edges AS (SELECT p.doc_id AS src, c.doc_id AS dst FROM ranked p "
        " JOIN ranked c ON c.h = p.h "
        " AND c.rnk IN (4*p.rnk+1, 4*p.rnk+2, 4*p.rnk+3, 4*p.rnk+4)), "
        "nodes AS (SELECT doc_id FROM documents), "
        f"consts AS (SELECT count(*) AS n, CAST({scale} AS BIGINT) // count(*) AS base FROM nodes), "
        "deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src), "
        "r0 AS (SELECT doc_id, (SELECT base FROM consts) AS r FROM nodes)"
    ]
    for k in range(1, num_iters + 1):
        p = k - 1
        sql.append(
            f", c{k} AS (SELECT e.dst AS doc_id, sum(p.r // dg.d) AS contrib "
            f" FROM edges e JOIN r{p} p ON p.doc_id = e.src "
            f" JOIN deg dg ON dg.src = e.src GROUP BY e.dst)"
            f", d{k} AS (SELECT COALESCE(sum(p.r), 0) AS dang FROM r{p} p "
            f" LEFT JOIN deg dg ON dg.src = p.doc_id WHERE dg.src IS NULL)"
            f", r{k} AS (SELECT n.doc_id, CAST((15 * (SELECT base FROM consts) "
            f" + 85 * (COALESCE(c.contrib, 0) "
            f" + (SELECT dang FROM d{k}) // (SELECT n FROM consts))) // 100 "
            f" AS BIGINT) AS r FROM nodes n LEFT JOIN c{k} c USING (doc_id))")
    sql.append(final if final is not None
               else f" SELECT doc_id, r AS rank_fp FROM r{num_iters}")
    return "".join(sql)


def _bfs_oracle(max_depth: int = 8) -> str:
    """SQL mirror of ops/graph.py::bfs_distance — the 4-ary lattice edge
    CTE, seeds doc_id % 97 = 1, then level-synchronous BFS unrolled one
    MATERIALIZED CTE per level (the lattice is a forest, so per-level
    sets cannot blow up); min(dist) per node = first-reach level."""
    sql = [
        "WITH ranked AS MATERIALIZED (SELECT doc_id, doc_id % 16 AS h, "
        " row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id) - 1 AS rnk "
        " FROM documents), "
        "edges AS MATERIALIZED (SELECT p.doc_id AS src, c.doc_id AS dst FROM ranked p "
        " JOIN ranked c ON c.h = p.h "
        " AND c.rnk IN (4*p.rnk+1, 4*p.rnk+2, 4*p.rnk+3, 4*p.rnk+4)), "
        "l0 AS MATERIALIZED (SELECT doc_id AS node FROM documents "
        " WHERE doc_id % 97 = 1)"
    ]
    for k in range(1, max_depth + 1):
        sql.append(
            f", l{k} AS MATERIALIZED (SELECT DISTINCT e.dst AS node "
            f" FROM edges e JOIN l{k - 1} f ON f.node = e.src)")
    union = " UNION ALL ".join(
        f"SELECT node, {k} AS dist FROM l{k}" for k in range(max_depth + 1))
    sql.append(f" SELECT node AS doc_id, CAST(min(dist) AS BIGINT) AS dist "
               f"FROM ({union}) GROUP BY node")
    return "".join(sql)


def _hits_oracle(num_iters: int = 5, scale: int = 10**6) -> str:
    """SQL mirror of ops/graph.py::hits — the same 4-ary lattice edge CTE
    as ``_pagerank_oracle``, then the exact sum-normalized floor-division
    HITS recurrence unrolled (HUGEINT cast on the raw·scale product, the
    engine's Python-int exactness)."""
    sql = [
        "WITH ranked AS MATERIALIZED (SELECT doc_id, doc_id % 16 AS h, "
        " row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id) - 1 AS rnk "
        " FROM documents), "
        "edges AS MATERIALIZED (SELECT p.doc_id AS src, c.doc_id AS dst FROM ranked p "
        " JOIN ranked c ON c.h = p.h "
        " AND c.rnk IN (4*p.rnk+1, 4*p.rnk+2, 4*p.rnk+3, 4*p.rnk+4)), "
        "nodes AS MATERIALIZED (SELECT doc_id FROM documents), "
        f"h0 AS MATERIALIZED (SELECT doc_id, CAST({scale} AS BIGINT) // "
        " (SELECT count(*) FROM nodes) AS h FROM nodes)"
    ]
    for k in range(1, num_iters + 1):
        p = k - 1
        sql.append(
            f", ap{k} AS MATERIALIZED (SELECT e.dst AS doc_id, sum(h.h) AS v "
            f" FROM edges e JOIN h{p} h ON h.doc_id = e.src GROUP BY e.dst)"
            f", asum{k} AS MATERIALIZED (SELECT COALESCE(sum(v), 0) AS s FROM ap{k})"
            f", a{k} AS MATERIALIZED (SELECT n.doc_id, CASE WHEN (SELECT s FROM asum{k}) > 0 "
            f" THEN CAST((CAST(COALESCE(p.v, 0) AS HUGEINT) * {scale}) "
            f" // (SELECT s FROM asum{k}) AS BIGINT) ELSE 0 END AS a "
            f" FROM nodes n LEFT JOIN ap{k} p USING (doc_id))"
            f", hp{k} AS MATERIALIZED (SELECT e.src AS doc_id, sum(a.a) AS v "
            f" FROM edges e JOIN a{k} a ON a.doc_id = e.dst GROUP BY e.src)"
            f", hsum{k} AS MATERIALIZED (SELECT COALESCE(sum(v), 0) AS s FROM hp{k})"
            f", h{k} AS MATERIALIZED (SELECT n.doc_id, CASE WHEN (SELECT s FROM hsum{k}) > 0 "
            f" THEN CAST((CAST(COALESCE(p.v, 0) AS HUGEINT) * {scale}) "
            f" // (SELECT s FROM hsum{k}) AS BIGINT) ELSE 0 END AS h "
            f" FROM nodes n LEFT JOIN hp{k} p USING (doc_id))")
    sql.append(
        f" SELECT n.doc_id, a.a AS auth_fp, h.h AS hub_fp FROM nodes n "
        f" JOIN a{num_iters} a USING (doc_id) "
        f" JOIN h{num_iters} h USING (doc_id)")
    return "".join(sql)


def _q_warc_extract(sf_dir: str):
    """Common-Crawl-style ingestion e2e: documents corpus → one .warc.gz
    per host bucket (per-record gzip members, payload digests) →
    ``read_warc`` Ray datasource → actor-pool extraction. Checks the full
    WARC write/parse/extract chain value-for-value: doc id, title,
    language, description and extracted-link count are closed forms of the
    documents table (raycrawl/warc.py)."""
    import hashlib

    import pyarrow.compute as pc
    import ray.data as rd

    from raycrawl import warc as W
    from raycrawl.extract import scrape_dataset

    corpus = _docs_corpus(sf_dir)
    with open(W.__file__, "rb") as f:
        wver = hashlib.sha1(f.read()).hexdigest()[:8]
    # corpus basename already embeds the fixture-source hash + sf dir
    warc_dir = f"/tmp/raycrawl_warc/{os.path.basename(corpus)}_{wver}"
    W.write_warc(corpus, warc_dir)
    pages = W.read_warc(warc_dir)
    out = scrape_dataset(pages, concurrency=_pool(0.5), batch_size=64)

    def project(batch):
        import pyarrow as pa

        ids = pc.extract_regex(batch.column("url"), r"/doc(?P<id>\d+)\.html$")
        return pa.table({
            "doc_id": pc.cast(pc.struct_field(ids, "id"), pa.int64()),
            "title": batch.column("title"),
            "language": batch.column("language"),
            "status_code": batch.column("status_code"),
            "description": batch.column("description"),
            "n_links": pc.cast(pc.list_value_length(batch.column("links")),
                               pa.int64()),
        })

    return (out.select_columns(
        ["url", "title", "language", "status_code", "description", "links"])
        .map_batches(project, batch_format="pyarrow").to_pandas())


def _q_crawl_priority(sf_dir: str):
    """Best-first frontier conformance: the sharded priority queue pops by
    (url_priority(url), seq) instead of BFS (depth, seq); under a 40-page
    budget the crawled set, seq assignment AND pop order must match the
    serial oracle's priority branch value-for-value (pop_rank column =
    row order of the engine's wave files)."""
    import glob as _glob

    import pandas as pd
    import pyarrow.parquet as pq

    from raycrawl.gen_golden import SEED, url_priority
    from raycrawl.pipeline import CrawlConfig, crawl

    out_dir = (f"/tmp/raycrawl_q/crawl_priority_"
               f"{os.path.basename(os.path.normpath(sf_dir))}")
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(seed_url=SEED, num_shards=4, wave_budget=16,
                      out_dir=out_dir, priority_fn=url_priority,
                      **_PRIORITY_KW)
    out = crawl(_feature_corpus_dir(), cfg)
    rows = []
    for f in sorted(_glob.glob(os.path.join(out.results_dir,
                                            "wave=*", "*.parquet"))):
        t = pq.read_table(f, columns=["seq", "depth", "url"])
        rows.append(t.to_pandas())
    df = pd.concat(rows, ignore_index=True)
    df.insert(0, "pop_rank", range(len(df)))
    return df


def _q_crawl_bfs_docs(sf_dir: str):
    """Crawl ordering with an exact SQL oracle: BFS over the docs0-host
    4-ary lattice visits members in rank order (seq == rank, depth ==
    4-ary tree depth of the rank) — the seen set and pop order of the
    frontier machinery are checked value-for-value against SQL."""
    import pandas as pd

    from raycrawl.pipeline import CrawlConfig, crawl

    corpus = _docs_corpus(sf_dir)
    import duckdb as _dd

    first_doc = _dd.sql(
        f"SELECT min(doc_id) FROM read_parquet('{sf_dir}/documents.parquet') "
        "WHERE doc_id % 16 = 0").fetchone()[0]
    seed = f"https://docs0.example/d0/doc{first_doc}.html"
    out_dir = f"/tmp/raycrawl_q/crawl_docs_{os.path.basename(os.path.normpath(sf_dir))}"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(seed_url=seed, max_depth=10, max_pages=100000,
                      respect_robots=False, num_shards=4,
                      out_dir=out_dir)
    outcome = crawl(corpus, cfg)
    res = outcome.results().select(["seq", "depth", "url"]).to_pandas()
    res["doc_id"] = res["url"].str.extract(r"/doc(\d+)\.html$").astype("int64")
    return res[["seq", "depth", "doc_id"]]


def _q_chunk_sentence(sf_dir: str):
    """C2 sentence chunker over the documents table (split → short-merge →
    64-word packing with 8-word overlap), exactly reproduced by the
    recursive-CTE oracle: sentence split + short-sentence merge are window
    functions; the sequential packing fold is the recursive CTE."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from raycrawl.chunker import ChunkStage

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])

    def to_pages(b: pa.Table) -> pa.Table:
        return pa.table({
            "url": pa.array([str(i) for i in b.column("doc_id").to_pylist()],
                            pa.string()),
            "markdown": b.column("text").cast(pa.large_string())})

    chunks = docs.map_batches(to_pages, batch_format="pyarrow").map_batches(
        ChunkStage, batch_format="pyarrow", concurrency=_pool(0.4),
        fn_constructor_kwargs={"chunker": "sentence", "max_chunk_size": 64,
                               "chunk_overlap": 8})
    df = chunks.select_columns(["url", "position", "word_count"]).to_pandas()
    df["doc_id"] = df["url"].astype("int64")
    return df[["doc_id", "position", "word_count"]]


def _q_chunk_stats(sf_dir: str):
    """A3 chunk-stats aggregate: total chunks + mean word count per
    chunk_type over the semantic chunks (ds.aggregate path)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from raycrawl.chunker import ChunkStage
    from raycrawl.extract import scrape_dataset

    pages = rd.read_parquet(_docs_corpus(sf_dir), columns=["url", "warc_ts", "html"])
    extracted = scrape_dataset(pages, concurrency=_pool(0.4), batch_size=64)
    chunks = extracted.select_columns(["url", "markdown"]).map_batches(
        ChunkStage, batch_format="pyarrow", concurrency=_pool(0.3))
    out = (chunks.groupby("chunk_type")
           .aggregate(Count(alias_name="total_chunks"),
                      Sum("word_count", alias_name="total_words"))
           .to_pandas())
    out["avg_words"] = out["total_words"] / out["total_chunks"]
    return out


def _q_dedup_exact(sf_dir: str):
    import ray.data as rd

    from raycrawl.ops.dedup import exact_dedup

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return exact_dedup(docs).to_pandas()


def _q_minhash_pairs(sf_dir: str):
    import ray.data as rd

    from raycrawl.ops.dedup import minhash_dedup_pairs

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return minhash_dedup_pairs(docs, threshold=0.5).to_pandas()


def _q_jaccard_pairs(sf_dir: str):
    """AllPairs prefix-filter n-gram Jaccard self-join — the EXACT sibling
    of dedup_minhash_pairs (no LSH recall argument needed; candidate
    completeness is guaranteed by the prefix filter, ops/dedup.py
    PrefixStage docstring)."""
    import ray.data as rd

    from raycrawl.ops.dedup import allpairs_jaccard_pairs

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return allpairs_jaccard_pairs(docs, threshold=0.5).to_pandas()


def _q_dedup_containment_pairs(sf_dir: str):
    """Set-containment near-dup join (|A∩B| / min(|A|,|B|) ≥ 0.8) — the
    asymmetric quote/excerpt/superset relation, candidates via the
    PPJoin-style smaller-prefix × larger-full-list filter (complete, no
    recall contract), exactly verified; the oracle blocks on shared
    shingles (complete for any t > 0) then applies the same division
    (raycrawl/ops/dedup.py::containment_pairs)."""
    import ray.data as rd

    from raycrawl.ops.dedup import containment_pairs

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    out = containment_pairs(docs, threshold=0.8).to_pandas()
    return (out.sort_values(["id_a", "id_b"]).reset_index(drop=True))


def _q_segment_dedup(sf_dir: str):
    """CCNet-style segment-level exact dedup: 10-word segments, corpus-wide
    first occurrence wins, docs reassembled (ops/dedup.py segment_dedup)."""
    import ray.data as rd

    from raycrawl.ops.dedup import segment_dedup

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return segment_dedup(docs, words_per_seg=10).to_pandas()


def _q_simhash(sf_dir: str):
    import ray.data as rd

    from raycrawl.ops.dedup import simhash_fingerprints

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return simhash_fingerprints(docs).to_pandas()


def _q_dedup_edit_pairs(sf_dir: str):
    """Levenshtein-≤1 near-dup pairs on 24-char text prefixes via
    symmetric-delete (SymSpell) blocking — blocking is pigeonhole-
    COMPLETE for the edit budget (any pair within distance k shares a
    member of their ≤k-deletion neighborhoods), so candidates are a
    superset and the vectorized DP verify is exact; the oracle replays
    the identical blocking in SQL (raycrawl/ops/dedup.py)."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.dedup import edit_prefix_pairs

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    df = edit_prefix_pairs(docs, k=1, key_len=24).to_pandas()
    if "doc_a" not in df.columns:  # zero-row dataset loses its schema
        df = pd.DataFrame({c: pd.Series(dtype="int64")
                           for c in ["doc_a", "doc_b", "dist"]})
    df = df.astype({c: "int64" for c in df.columns})
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs (hamming ≤ 6): banding is pigeonhole-COMPLETE
    for the hamming budget (any pair within budget shares ≥1 exact band),
    so the LSH-shaped groupby is exact and the SQL oracle just brute-forces
    bit_count(xor(fp_a, fp_b)) over the same md5 simhashes."""
    import ray.data as rd

    from raycrawl.ops.dedup import simhash_near_pairs

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    import pandas as pd

    df = simhash_near_pairs(docs, max_hamming=6).to_pandas()
    if "id_a" not in df.columns:  # zero-row dataset loses its schema
        df = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                           "id_b": pd.Series(dtype="int64"),
                           "hamming": pd.Series(dtype="int64")})
    return df[["id_a", "id_b", "hamming"]]


def _q_embedding_dups(sf_dir: str):
    """Cosine ≥ 0.4 pairs. Every sf table is at most
    _EMBEDDING_EXACT_ROWS rows, so this is the exact broadcast path the
    oracle replicates (larger tables switch to hyperplane LSH)."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.dedup import embedding_dup_pairs

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    df = embedding_dup_pairs(emb, threshold=0.4).to_pandas()
    if "id_a" not in df.columns:  # zero-row dataset loses its schema
        df = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                           "id_b": pd.Series(dtype="int64")})
    return df[["id_a", "id_b"]]


def _q_gopher_quality(sf_dir: str):
    """Gopher-rule quality filter (word-level subset; integer
    cross-multiplied thresholds, bit-exact vs SQL)."""
    import ray.data as rd

    from raycrawl.ops.textstats import gopher_quality

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return gopher_quality(docs).to_pandas()


def _q_repetition(sf_dir: str):
    """Gopher-family repetition signals (distinct words + top adjacent
    bigram count)."""
    import ray.data as rd

    from raycrawl.ops.textstats import repetition_stats

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return repetition_stats(docs).to_pandas()


def _q_audio_features(sf_dir: str):
    """REAL multimodal decode path: raw int16 PCM binary column →
    task-stage decode + integer features (energy / zero-crossings /
    peak), exactly reproduced by the closed-form SQL oracle. Row count
    scales with the sf documents table."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from raycrawl.media_fixtures import synth_audio_table
    from raycrawl.ops.multimodal import PcmDecoder, media_features

    n = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    ds = rd.from_arrow(synth_audio_table(n))
    return media_features(ds, PcmDecoder(), PcmDecoder.stats, "audio_id") \
        .to_pandas().sort_values("audio_id").reset_index(drop=True)


def _q_image_png_features(sf_dir: str):
    """REAL multimodal image decode path: genuine PNG payloads (stdlib
    zlib + numpy codec, raycrawl/ops/png.py — all five scanline filters
    plus the adaptive MSAD heuristic are exercised across the corpus)
    decoded on Ray tasks → integer channel statistics, exactly
    reproduced by the closed-form SQL oracle. The image analogue of
    `audio_features`: no codec stub on this path."""
    import pyarrow.parquet as pq

    from raycrawl.media_fixtures import synth_media_dataset, synth_png_batch
    from raycrawl.ops.multimodal import media_features
    from raycrawl.ops.png import PngDecoder

    n = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    # distributed encode
    ds = synth_media_dataset(synth_png_batch, n, n_blocks=2 * _pool(1.0))
    return media_features(ds, PngDecoder(), PngDecoder.stats, "image_id") \
        .to_pandas().sort_values("image_id").reset_index(drop=True)


def _q_bpe_encode(sf_dir: str):
    """The training-token product: corpus-trained BPE merges + the
    deterministic vocab-id table → every document's subword-id sequence
    (comma-joined for the exact string compare). Value-compared against
    the independent serial reference's id sequences."""
    import ray.data as rd

    from raycrawl.ops.bpe import (bpe_encode, bpe_train_incremental,
                                  build_vocab_ids, distributed_word_counts)

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    wc = distributed_word_counts(docs)
    merges = bpe_train_incremental(wc, _BPE_MERGES)
    vids = build_vocab_ids(wc, merges)
    docs2 = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "text"])
    return bpe_encode(docs2, merges, vids).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_split_overlong(sf_dir: str):
    """Overlong-document windowing before packing: docs split into
    consecutive 32-token pieces (token-boundary, last piece short) —
    one row per piece, exact vs the SQL list_slice replay."""
    import ray.data as rd

    from raycrawl.ops.textstats import split_overlong

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return split_overlong(docs, max_tokens=32).to_pandas() \
        .sort_values(["doc_id", "piece_idx"]).reset_index(drop=True)


def _q_corpus_shuffle(sf_dir: str):
    """Deterministic global shuffle rank (reproducible epoch ordering):
    rank = position in ascending md5(salt||doc_id), computed with
    range-bucketed distributed ranking + a 256-entry driver offset table
    — never a single-node global sort. Oracle = row_number over the same
    md5 hex ordering."""
    import ray.data as rd

    from raycrawl.ops.training import deterministic_shuffle_rank

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id"])
    return deterministic_shuffle_rank(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_corpus_mix(sf_dir: str):
    """Source-weighted corpus mixing (the training-data recipe step):
    synthetic sources web/books/code by doc_id % 3, kept at 90% / 50% /
    20% via the deterministic md5-threshold sampler — integer-exact, so
    the oracle replays the HUGEINT comparison bit-for-bit."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.training import mix_sources

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id"])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        src = b["doc_id"].mod(3).map({0: "web", 1: "books", 2: "code"})
        return pd.DataFrame({"doc_id": b["doc_id"], "source": src})

    tagged = docs.map_batches(tag, batch_format="pandas")
    out = mix_sources(tagged, {"web": 90, "books": 50, "code": 20},
                      weight_scale=100)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _minhash_index_dir(sf_dir: str) -> str:
    """Staged corpus LSH index for the incremental near-dup probe, cached
    by (documents parquet identity, dedup.py source) — the production
    shape: the historical corpus is indexed once, every new crawl shard
    probes it."""
    import hashlib

    import raycrawl.ops.dedup as dmod

    path = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(path)
    h = hashlib.sha1()
    with open(dmod.__file__, "rb") as f:
        h.update(f.read())
    h.update(f"{path}|{st.st_size}|{st.st_mtime_ns}".encode())
    return f"/tmp/raycrawl_minhash_idx/{h.hexdigest()[:12]}"


def _q_dedup_incremental_near(sf_dir: str):
    """Incremental NEAR-dup (the LSH sibling of dedup_incremental's exact
    hash semi-join): a synthesized 'new' shard (every doc_id % 5 == 0
    row, re-keyed +2^40, one novel token appended → Jaccard ≈ 0.97 to
    its source) probes the staged corpus band index — reads only its
    band keys' bucket partitions, never re-shuffling the corpus — then
    exact-verifies candidates. Oracle = brute-force new × corpus 3-gram
    Jaccard at the same threshold. Threshold 0.8 keeps every qualifying
    pair deep in the 32-band × 4-row LSH s-curve's certain-recall region
    (P[miss] = (1 - s^4)^32 ≤ 5e-8 at s = 0.8, vs ~13% at s = 0.5), so
    the exact oracle cannot be failed by a recall miss under fixture
    drift (ADVICE r4); minhash_probe_index documents the contract."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.dedup import build_minhash_index, minhash_probe_index

    corpus = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                             columns=["doc_id", "text"])
    idx = _minhash_index_dir(sf_dir)
    with _timed_build():
        build_minhash_index(corpus, idx)

    def synth(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"] % 5 == 0]
        return pd.DataFrame({
            "doc_id": b["doc_id"] + (1 << 40),
            "text": b["text"].fillna("") + " znovel"
            + b["doc_id"].astype(str)})

    new = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "text"]).map_batches(
        synth, batch_format="pandas")
    corpus2 = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text"])
    return minhash_probe_index(new, idx, corpus2, threshold=0.8) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _q_commonness_buckets(sf_dir: str):
    """CCNet-style head/middle/tail corpus partitioning (Wenzek et al.
    2020): exact integer unigram-commonness score → exact corpus
    terciles (two-pass distributed selection) → value-deterministic
    bucket labels. The SQL oracle recomputes the score, reads the same
    order statistics by row_number, and applies the identical ≤
    comparisons."""
    import ray.data as rd

    from raycrawl.ops.textstats import commonness_buckets

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return commonness_buckets(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_pack_sequences(sf_dir: str):
    """Training-sequence packing (the last step of every LLM data
    pipeline): greedy first-fit of docs into ≤256-token sequences within
    128-doc shards — shard-local, deterministic, resumable. The SQL
    oracle replays the greedy fold as a recursive CTE partitioned by
    shard, so the packing decisions are value-checked exactly."""
    import ray.data as rd

    from raycrawl.ops.textstats import pack_sequences

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return pack_sequences(docs, max_tokens=256, shard_size=128) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


_BPE_MERGES = 40


def _bpe_oracle_dir() -> str:
    """Materialize the INDEPENDENT serial BPE reference
    (raycrawl/ops/bpe.py::bpe_encode_reference_serial — full-text
    character training with in-order merge replay; shares no code path
    with the engine's bounded word-table trainer or its encoder: its
    per-doc counts and ids back ``text_bpe_tokens`` and
    ``text_bpe_encode``) over every sf
    documents table, so the driver's DuckDB oracle can value-compare the
    distributed pipeline exactly — the same materialized-serial-oracle
    pattern as _crawl_oracle_dir. Output is one parquet per sf keyed by
    (n_docs, total_chars), which the SQL filter matches against the
    registered ``documents`` view (sf0.001 and sf0.01 both have 500
    rows, so row count alone is ambiguous). Cache keyed by bpe.py
    source + merge count."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    import raycrawl.ops.bpe as bpemod

    h = hashlib.sha1()
    with open(bpemod.__file__, "rb") as f:
        h.update(f.read())
    h.update(str(_BPE_MERGES).encode())
    out_dir = f"/tmp/raycrawl_bpe_oracle/{h.hexdigest()[:12]}"
    from raycrawl.staging import atomic_build_dir, is_complete

    if is_complete(out_dir):
        return out_dir

    def _build(tmp: str) -> None:
        for sf in ("0.001", "0.01", "0.1"):
            path = f"/root/testdata/sf{sf}/documents.parquet"
            if not os.path.exists(path):
                continue
            t = pq.read_table(path, columns=["doc_id", "text"])
            texts = [x if x is not None else "" for x in
                     t.column("text").to_pylist()]
            _, counts, ids_csv = bpemod.bpe_encode_reference_serial(
                texts, _BPE_MERGES)
            nw = [len(x.split()) for x in texts]
            total_chars = sum(len(x) for x in texts)
            pq.write_table(
                pa.table({
                    "doc_id": t.column("doc_id").cast(pa.int64()),
                    "n_bpe_tokens": pa.array(counts, pa.int64()),
                    "n_words": pa.array(nw, pa.int64()),
                    "ids_csv": pa.array(ids_csv, pa.string()),
                    "n_docs": pa.array([len(texts)] * len(texts), pa.int64()),
                    "total_chars": pa.array([total_chars] * len(texts),
                                            pa.int64())}),
                os.path.join(tmp, f"sf{sf}.parquet"))

    return atomic_build_dir(out_dir, _build)


def _q_bpe_tokens(sf_dir: str):
    """BPE tokenizer end-to-end (the LLM-data tokenization op): ONE
    distributed corpus pass → exact bounded word table (the text ops'
    one corpus counter, textstats._bounded_topk_vocab) → driver training
    over the compressed types (the standard Sennrich/HF trainer shape) →
    merges broadcast → distributed per-doc subword counts from the one
    encode stage (bpe._encode, per-batch type memo). Value-compared
    against the independent serial reference
    (bpe.bpe_encode_reference_serial) via _bpe_oracle_dir."""
    import ray.data as rd

    from raycrawl.ops.bpe import bpe_token_count, bpe_train

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    merges = bpe_train(docs, num_merges=_BPE_MERGES)
    docs2 = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "text"])
    return bpe_token_count(docs2, merges).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def _q_image_jpeg_features(sf_dir: str):
    """REAL baseline JPEG decode path (VERDICT r3 item 6 — the last codec
    stand-in made real): genuine JFIF payloads (stdlib DCT entropy codec,
    raycrawl/ops/jpeg.py — Annex K tables, Huffman scan, byte stuffing)
    encoded distributed, decoded on Ray tasks → integer pixel
    statistics. The fixture images are piecewise-constant per 8×8 block,
    so the LOSSY round-trip is exactly computable: only the
    integer-quantized DC survives, and the oracle replicates
    clamp(2·round_half_away((c−128)/2) + 128) per block closed-form
    (quality 50 → Q00 = 16). Reference hook anchored:
    file_utils.py:38-75 encode_image."""
    import pyarrow.parquet as pq

    from raycrawl.media_fixtures import synth_jpeg_batch, synth_media_dataset
    from raycrawl.ops.jpeg import JpegDecoder
    from raycrawl.ops.multimodal import media_features

    n = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    ds = synth_media_dataset(synth_jpeg_batch, n, n_blocks=2 * _pool(1.0))
    return media_features(ds, JpegDecoder(), JpegDecoder.stats, "image_id") \
        .to_pandas().sort_values("image_id").reset_index(drop=True)


def _q_quality_gate(sf_dir: str):
    """Corpus-percentile quality filter (two-pass: exact distributed P90
    of the per-doc token count → broadcast threshold → streaming filter)
    — the canonical LLM-data quality-gate pipeline, exact."""
    import ray.data as rd

    from raycrawl.ops.textstats import quality_gate

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return quality_gate(docs).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)


def _q_vocab(sf_dir: str):
    """Corpus vocabulary stats: total tokens + exact distinct tokens via
    per-batch unique → coarse-hash-partition distinct (never one Ray
    group per token, never a driver token set)."""
    import ray.data as rd

    from raycrawl.ops.textstats import vocab_stats

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return vocab_stats(docs)


def _q_collocations(sf_dir: str):
    """Corpus top-50 adjacent-bigram collocations: per-batch combiner →
    coarse-partition sum + local top-k → tiny driver merge; integer
    counts, (w1, w2) tie-break — exact vs the SQL GROUP BY / ORDER BY."""
    import ray.data as rd

    from raycrawl.ops.textstats import collocations

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return collocations(docs, k=50)


def _q_unigram_commonness(sf_dir: str):
    """Two-pass corpus-statistics scoring (aggregate → broadcast →
    per-doc score) — the LM-quality-filter pipeline shape, exact."""
    import ray.data as rd

    from raycrawl.ops.textstats import unigram_commonness

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return unigram_commonness(docs).to_pandas()


def _q_text_tfidf(sf_dir: str):
    """Per-document TF-IDF top-3 terms (exact fixed-point rational-idf
    surrogate, raycrawl/ops/textstats.py::tfidf_top_terms) — the classic
    keyword/topic-label signal attached before corpus sampling/routing.
    df comes through the bounded exact top-K vocab machinery; the oracle
    replays the identical HUGEINT floor-division score in SQL."""
    import ray.data as rd

    from raycrawl.ops.textstats import tfidf_top_terms

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    out = tfidf_top_terms(docs, k=3).to_pandas()
    return out.sort_values(["doc_id", "rank"]).reset_index(drop=True)


def _q_token_count(sf_dir: str):
    import ray.data as rd

    from raycrawl.ops.textstats import token_count

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return token_count(docs).to_pandas()


def _q_quality(sf_dir: str):
    import ray.data as rd

    from raycrawl.ops.textstats import quality_score

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return quality_score(docs).to_pandas()


def _q_lang_id(sf_dir: str):
    import ray.data as rd

    from raycrawl.ops.textstats import lang_id

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return lang_id(docs).to_pandas()


def _q_token_count_bpe(sf_dir: str):
    import ray.data as rd

    from raycrawl.ops.textstats import token_count_bpe

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return token_count_bpe(docs).to_pandas()


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: docs with doc_id % 50 == 0 act as the
    'eval set'; every document is flagged by its 8-gram overlap with that
    set — broadcast membership, no shuffle. Exact SQL oracle via a distinct
    benchmark-shingle semi-join."""
    import duckdb as _dd
    import ray.data as rd

    from raycrawl.ops.textstats import decontaminate

    bench = [r[0] for r in _dd.sql(
        f"SELECT text FROM read_parquet('{sf_dir}/documents.parquet') "
        "WHERE doc_id % 50 = 0 ORDER BY doc_id").fetchall()]
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return decontaminate(docs, bench, n=8).to_pandas()


def _q_fingerprints(sf_dir: str):
    import ray.data as rd

    from raycrawl.ops.textstats import fingerprints

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return fingerprints(docs).to_pandas()


def _q_pipeline_quality_dedup(sf_dir: str):
    """Composite training-data-prep pipeline with an exact oracle:
    quality filter (≥20 words) → exact dedup (min doc_id per content hash)
    → token count for the survivors. Each stage is the corresponding
    Ray Data operator composed end-to-end."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from raycrawl.ops.dedup import exact_dedup
    from raycrawl.ops.textstats import token_count

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])

    def quality_filter(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        n_words = pa.array(
            [len(t.strip().split()) if t and t.strip() else 0 for t in texts],
            pa.int64())
        return b.filter(pc.greater_equal(n_words, 20))

    import ray

    good = docs.map_batches(quality_filter, batch_format="pyarrow")
    # survivor set built ONCE on the driver (it is the small side),
    # broadcast via ray.put and read per batch — not rebuilt per batch
    survivors = pa.array(
        sorted(set(exact_dedup(good).to_pandas()["doc_id"])), pa.int64())
    surv_ref = ray.put(survivors)

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b.column("doc_id"), ray.get(surv_ref)))

    kept = good.map_batches(keep, batch_format="pyarrow")
    return token_count(kept).to_pandas()


def _shard_roundtrip(sf_dir: str, write, read):
    """Documents → ``write(docs, dir, n_shards=16)`` → ``read(dir)`` →
    per-shard (doc_id % 16) rows, text chars and doc_id sum: the fold
    the shard-roundtrip oracles run on the ORIGINAL table, so an exact
    match certifies lossless serialization of every row."""
    import shutil
    import tempfile

    import ray.data as rd

    from raycrawl.ops.agg import aggregate_partials

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text", "lang"])
    tmp = tempfile.mkdtemp(prefix="raycrawl_shard_rt_", dir="/tmp")
    try:
        write(docs, tmp, n_shards=16)
        back = read(tmp)

        def partial(b):
            import numpy as np
            import pandas as pd

            g = pd.DataFrame({
                "shard": b["doc_id"].to_numpy("int64") % 16,
                "n_docs": np.int64(1),
                "sum_len_chars": b["text"].fillna("").str.len()
                .astype("int64"),
                "sum_doc_id": b["doc_id"].astype("int64")})
            return g.groupby("shard", as_index=False).sum()

        out = aggregate_partials(
            back, partial, keys=["shard"],
            agg_spec={"n_docs": "sum", "sum_len_chars": "sum",
                      "sum_doc_id": "sum"})
        out = out.astype({c: "int64" for c in out.columns})
        return out.sort_values("shard").reset_index(drop=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _q_docs_jsonl_roundtrip(sf_dir: str):
    """JSONL sink/source e2e: documents → hash-sharded gzip JSONL
    archives (byte-deterministic, resumable at file granularity) → read
    back file-granularly → per-shard aggregate (``_shard_roundtrip``;
    raycrawl/ops/jsonl.py)."""
    from raycrawl.ops.jsonl import read_jsonl_shards, write_jsonl_shards

    return _shard_roundtrip(sf_dir, write_jsonl_shards, read_jsonl_shards)


def _q_docs_split_assign(sf_dir: str):
    """Deterministic stratified train/val/test split with exact
    per-stratum (lang) cut points — grouped global ranking via
    (stratum, hash-range) buckets + a driver offset table bounded by
    |strata|·256, so no stratum ever co-locates on one worker; the
    integer threshold predicate replays verbatim in the oracle
    (raycrawl/ops/training.py::stratified_split_assign)."""
    import ray.data as rd

    from raycrawl.ops.training import stratified_split_assign

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang"])
    return stratified_split_assign(docs)


def _q_docs_csv_roundtrip(sf_dir: str):
    """CSV sink/source e2e: documents → hash-sharded gzip CSV archives
    (RFC-4180, byte-deterministic, resumable at file granularity) →
    read back file-granularly → per-shard aggregate. The oracle
    aggregates the ORIGINAL table with the same shard hash
    (``_shard_roundtrip``), so an exact match certifies lossless
    serialization of every row (null → '' equivalence via COALESCE on
    both sides) (raycrawl/ops/csvio.py)."""
    from raycrawl.ops.csvio import read_csv_shards, write_csv_shards

    return _shard_roundtrip(
        sf_dir, write_csv_shards,
        lambda d: read_csv_shards(d, dtypes={"doc_id": "int64"}))


def _q_text_top_tokens_per_lang(sf_dir: str):
    """Grouped top-k by aggregate — per-language top-5 tokens: (lang,
    tok)-keyed shuffle makes every token's total complete inside one
    partition, per-partition per-lang top-k bounds the driver merge at
    partitions × k rows (raycrawl/ops/textstats.py)."""
    import ray.data as rd

    from raycrawl.ops.textstats import top_tokens_per_lang

    return top_tokens_per_lang(rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["lang", "text"]))


def _q_link_degree_hist(sf_dir: str):
    """Web-graph degree distribution: out-degree per page (0 for leaves)
    → histogram. Distributed per-batch counts by src (map-side combine),
    leaf count closed-form as |nodes| − |nodes with out-links|."""
    import pandas as pd
    import pyarrow.parquet as pq

    from raycrawl.ops.agg import aggregate_partials

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("src", as_index=False).size()
        return g.rename(columns={"size": "deg"})

    deg = aggregate_partials(_edges_dataset(sf_dir), partial,
                             keys=["src"], agg_spec={"deg": "sum"})
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    hist = (deg.groupby("deg", as_index=False).size()
            .rename(columns={"deg": "out_degree", "size": "n_nodes"}))
    zero = pd.DataFrame({"out_degree": [0],
                         "n_nodes": [n_docs - len(deg)]})
    out = pd.concat([zero, hist], ignore_index=True)
    out = out[out["n_nodes"] > 0].astype("int64")
    return out.sort_values("out_degree").reset_index(drop=True)


def _q_corpus_report(sf_dir: str):
    """The corpus datasheet in ONE streaming pass: doc/token/char counts,
    empty-doc count and distinct-language count from a single map_batches
    of mergeable partials (no per-metric re-scan — what a 100 TB corpus
    report must look like)."""
    import pandas as pd
    import ray.data as rd

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text", "lang"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        texts = b["text"].fillna("").str.strip()
        toks = texts.apply(lambda t: len(t.split()))
        return pd.DataFrame({
            "n_docs": [len(b)],
            "n_tokens": [int(toks.sum())],
            "n_chars": [int(texts.str.len().sum())],
            "n_empty": [int((texts == "").sum())],
            "langs": [",".join(sorted(set(b["lang"].fillna(""))))],
        })

    parts = docs.map_batches(partial, batch_format="pandas",
                             batch_size=65536).to_pandas()
    langs = set()
    for s in parts["langs"]:
        langs.update(x for x in s.split(",") if x)
    return pd.DataFrame({
        "n_docs": [int(parts["n_docs"].sum())],
        "n_tokens": [int(parts["n_tokens"].sum())],
        "n_chars": [int(parts["n_chars"].sum())],
        "n_empty": [int(parts["n_empty"].sum())],
        "n_langs": [len(langs)],
    })


def _q_dedup_survivors_quality(sf_dir: str):
    """Quality-aware near-dup clustering: same minhash components as
    dedup_survivors, canonical = longest document (word count, tie min
    id) — the 'keep the best copy' policy."""
    import ray.data as rd

    from raycrawl.ops.dedup import dedup_survivors_by_score, minhash_dedup_pairs

    import pandas as pd

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(docs, threshold=0.5).to_pandas()

    # exact word counts (0 for blank, matching length(toks) in SQL)
    def wc(b: pd.DataFrame) -> pd.DataFrame:
        stripped = b["text"].fillna("").str.strip()
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_words": stripped.apply(
                lambda t: len(t.split()) if t else 0).astype("int64")})

    counts = docs.map_batches(wc, batch_format="pandas").to_pandas()
    scores = dict(zip(counts["doc_id"].astype(int),
                      counts["n_words"].astype(int)))
    return dedup_survivors_by_score(counts["doc_id"], pairs, scores)


def _q_dedup_incremental(sf_dir: str):
    """Incremental-ingestion dedup (hash semi-join of a new shard against
    the staged corpus): the 'new' side is the documents table re-keyed
    (+1e6) with every doc_id % 3 == 0 text made unique — so exactly the
    non-multiple-of-3 rows must be flagged as already-in-corpus."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.dedup import exact_dedup_against_corpus

    corpus = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                             columns=["doc_id", "text"])

    def synth_new(b: pd.DataFrame) -> pd.DataFrame:
        uniq = b["doc_id"] % 3 == 0
        text = b["text"].where(
            ~uniq, b["text"] + " uniq" + b["doc_id"].astype(str))
        return pd.DataFrame({"doc_id": b["doc_id"] + (1 << 40),
                             "text": text})

    new = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "text"]).map_batches(
        synth_new, batch_format="pandas")
    return exact_dedup_against_corpus(new, corpus)


def _q_dedup_survivors(sf_dir: str):
    """Near-dup clustering end-to-end: minhash pairs → connected
    components → canonical id per doc."""
    import ray.data as rd

    from raycrawl.ops.dedup import dedup_survivors, minhash_dedup_pairs

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(docs, threshold=0.5).to_pandas()
    ids = docs.select_columns(["doc_id"]).to_pandas()["doc_id"]
    return dedup_survivors(ids, pairs)


def _office_fixture_query(sf_dir: str, kind: str, build_row,
                          out_cols=("doc_id", "markdown")):
    """Shared S7 converter harness: documents rows → real office files on
    /tmp (cached; key = fixture+converter sources AND the documents table
    identity (size+mtime), per ADVICE r2 — the sf-dir tag alone missed
    content changes) → read_binary_files → ConvertStage actor pool →
    per-doc converter output. ``build_row(doc_id, text) -> bytes``."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    import raycrawl.convert_office as co
    import raycrawl.convert_pdf as cp
    import raycrawl.office_fixtures as of
    from raycrawl.convert import ConvertStage

    h = hashlib.sha1()
    for mod in (of, co, cp):
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    h.update(f"{st.st_size}:{st.st_mtime_ns}".encode())
    tag = os.path.basename(os.path.normpath(sf_dir))
    files_dir = f"/tmp/raycrawl_{kind}/{tag}_{h.hexdigest()[:12]}"
    from raycrawl.staging import atomic_build_dir, is_complete

    if not is_complete(files_dir):
        def _build(tmp: str) -> None:
            def write_files(b: "pd.DataFrame") -> "pd.DataFrame":
                for doc_id, text in zip(b["doc_id"], b["text"]):
                    with open(os.path.join(tmp, f"doc{doc_id}.{kind}"),
                              "wb") as f:
                        f.write(build_row(int(doc_id), text))
                return pd.DataFrame({"n": [len(b)]})

            rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "text"]).map_batches(
                write_files, batch_format="pandas", batch_size=512).count()

        with _timed_build():
            atomic_build_dir(files_dir, _build)

    ds = rd.read_binary_files(files_dir, include_paths=True,
                              file_extensions=[kind])
    out = ds.map_batches(ConvertStage, batch_format="pyarrow",
                         concurrency=_pool(0.4)).to_pandas()
    out["doc_id"] = (out["path"].str.extract(rf"doc(\d+)\.{kind}$")
                     .astype("int64"))
    assert (out["status"] == "ok").all()
    return out[list(out_cols)]


def _q_convert_docx(sf_dir: str):
    """S7/M24 end-to-end with an exact oracle: documents rows → real .docx
    files (stdlib zip builder, byte-stable) → read_binary_files →
    ConvertStage actor pool → (doc_id, markdown). Expected markdown is a
    closed-form function of the row ('# Document N' heading + the text
    paragraph), so the whole parse-render path is hash-checked in SQL."""
    import raycrawl.office_fixtures as of

    def build_row(doc_id: int, text) -> bytes:
        return of.build_docx(
            [of.docx_paragraph(f"Document {doc_id}", style="Heading1"),
             of.docx_paragraph(text or "")],
            title=f"Document {doc_id}")

    return _office_fixture_query(sf_dir, "docx", build_row)


def _q_convert_xlsx(sf_dir: str):
    """S7/M25 end-to-end with an exact oracle: documents rows → real .xlsx
    workbooks (one 'D' sheet: header + one data row) → read_binary_files →
    ConvertStage → (doc_id, markdown); the width-padded pipe-table render
    is reconstructed closed-form in SQL with rpad/repeat."""
    import raycrawl.office_fixtures as of

    def build_row(doc_id: int, text) -> bytes:
        return of.build_xlsx(
            {"D": [["doc_id", "n_chars"], [doc_id, len(text or "")]]})

    return _office_fixture_query(sf_dir, "xlsx", build_row)


def _q_convert_pdf(sf_dir: str):
    """S7/M23 end-to-end with an exact oracle (VERDICT r2 item 1):
    documents rows → real two-page PDFs (classic-xref builder; page 1 =
    ALL-CAPS 'SECTION {id}' heading + the text paragraph, page 2 = a
    3-item bullet list; odd doc_ids FlateDecode-compressed) →
    read_binary_files → ConvertStage actor pool → (doc_id, markdown,
    metadata_json). Expected markdown is a closed-form function of the
    row, so the page walk, FlateDecode, the text-operator scan, the
    heading/list heuristics, heading hierarchy and the renderer
    (reference pdf_converter.py:23-448) are all hash-checked in SQL."""
    import raycrawl.office_fixtures as of

    def build_row(doc_id: int, text) -> bytes:
        return of.build_pdf(
            [[f"SECTION {doc_id}", text or ""],
             ["- alpha", f"- beta {doc_id}", "- gamma"]],
            title=f"Document {doc_id}", compress=bool(doc_id % 2))

    return _office_fixture_query(
        sf_dir, "pdf", build_row,
        out_cols=("doc_id", "markdown", "metadata_json"))


def _q_pii_scrub(sf_dir: str):
    """PII redaction over documents whose text is deterministically salted
    with synthetic contact info (email + NANP phone + IPv4 derived from
    doc_id — both sides of the oracle build the identical string), then
    scrubbed by the vectorized RE2 pass. Returns counts + scrubbed text."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.textstats import pii_scrub

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])

    def salt(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].astype("int64")
        suffix = (" contact user" + d.astype(str) + "@mail.example or "
                  "+1 555-" + (100 + (d * 7) % 900).astype(str) + "-"
                  + (1000 + (d * 13) % 9000).astype(str)
                  + " from 10." + (d % 256).astype(str) + "."
                  + ((d * 3) % 256).astype(str) + "."
                  + (1 + d % 254).astype(str))
        return pd.DataFrame({"doc_id": d,
                             "text": b["text"].fillna("") + suffix})

    return pii_scrub(docs.map_batches(salt, batch_format="pandas")) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_cluster_assign(sf_dir: str):
    """Nearest-centroid assignment (the k-means E-step) over
    2^20-quantized int64 vectors — exact distances, deterministic argmin."""
    import ray.data as rd

    from raycrawl.ops.cluster import cluster_assign

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    return cluster_assign(emb, centroid_ids=list(range(8))) \
        .to_pandas().sort_values("vec_id").reset_index(drop=True)


_NORM_SALT = ["  CaFÉ  déjà\tVu ", " Übermäßig  ŁÓDŹ ", " 한국어 테스트 q̃ ",
              " हिन्दी   MiXeD "]


def _q_normalize(sf_dir: str):
    """Unicode normalization over documents salted with mixed-case,
    accented, Indic/Hangul and messy-whitespace suffixes (doc_id-keyed so
    both sides build the identical input)."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.textstats import normalize_text

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])

    def salt(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].astype("int64")
        suffix = d.map(lambda i: _NORM_SALT[i % 4])
        return pd.DataFrame({"doc_id": d,
                             "text": b["text"].fillna("") + suffix})

    return normalize_text(docs.map_batches(salt, batch_format="pandas")) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_dup_spans(sf_dir: str):
    """Substring-level duplicate-span stats (4-token windows occurring ≥2×
    corpus-wide; covered-position union per doc)."""
    import ray.data as rd

    from raycrawl.ops.dedup import dup_spans

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return dup_spans(docs, gram_len=4) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_kmeans(sf_dir: str):
    """Two full Lloyd iterations of exact-integer k-means (k=4, seeds =
    embeddings 0..3) + a final assignment pass — the oracle unrolls the
    identical iterations as SQL CTEs (floor-division means via the
    ((s%n)+n)%n trick, since DuckDB's ``//`` truncates for negatives)."""
    import ray.data as rd

    from raycrawl.ops.cluster import kmeans_fit

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    out, _centroids = kmeans_fit(emb, centroid_ids=list(range(4)), iters=2)
    return out.to_pandas().sort_values("vec_id").reset_index(drop=True)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "extract_pages": _q_extract_pages,
        "extract_links": _q_extract_links,
        "warc_extract": _q_warc_extract,
        "link_pagerank": _q_link_pagerank,
        "host_rank_mass": _q_host_rank_mass,
        "graph_components": _q_graph_components,
        "graph_hits": _q_graph_hits,
        "link_bfs_depth": _q_link_bfs_depth,
        "crawl_delta": _q_crawl_delta,
        "recrawl_schedule": _q_recrawl_schedule,
        "link_backlinks": _q_link_backlinks,
        "text_bigram_commonness": _q_bigram_commonness,
        "text_bpe_tokens": _q_bpe_tokens,
        "text_bpe_encode": _q_bpe_encode,
        "text_pack_sequences": _q_pack_sequences,
        "text_commonness_buckets": _q_commonness_buckets,
        "dedup_incremental_near": _q_dedup_incremental_near,
        "corpus_mix": _q_corpus_mix,
        "corpus_shuffle": _q_corpus_shuffle,
        "text_split_overlong": _q_split_overlong,
        "url_templates": _q_url_templates,
        "crawl_bfs": _q_crawl_bfs,
        "crawl_warc": _q_crawl_warc,
        "link_anchor_texts": _q_anchor_texts,
        "text_dup_ngrams": _q_dup_ngrams,
        "crawl_priority": _q_crawl_priority,
        "crawl_seen": _q_crawl_seen,
        "crawl_bfs_docs": _q_crawl_bfs_docs,
        "crawl_politeness": _q_crawl_politeness,
        "chunk_semantic": _q_chunk_semantic,
        "chunk_sentence": _q_chunk_sentence,
        "chunk_stats": _q_chunk_stats,
        "dedup_exact": _q_dedup_exact,
        "dedup_minhash_pairs": _q_minhash_pairs,
        "dedup_jaccard_pairs": _q_jaccard_pairs,
        "dedup_containment_pairs": _q_dedup_containment_pairs,
        "dedup_segments": _q_segment_dedup,
        "dedup_simhash": _q_simhash,
        "dedup_simhash_pairs": _q_simhash_pairs,
        "dedup_edit_pairs": _q_dedup_edit_pairs,
        "dedup_embedding_pairs": _q_embedding_dups,
        "text_token_count": _q_token_count,
        "text_gopher_quality": _q_gopher_quality,
        "text_repetition": _q_repetition,
        "text_unigram_commonness": _q_unigram_commonness,
        "text_tfidf_top_terms": _q_text_tfidf,
        "audio_features": _q_audio_features,
        "image_png_features": _q_image_png_features,
        "image_jpeg_features": _q_image_jpeg_features,
        "text_quality_gate": _q_quality_gate,
        "text_vocab": _q_vocab,
        "text_collocations": _q_collocations,
        "text_quality": _q_quality,
        "text_lang_id": _q_lang_id,
        "text_fingerprints": _q_fingerprints,
        "text_token_count_bpe": _q_token_count_bpe,
        "text_decontaminate": _q_decontaminate,
        "pipeline_quality_dedup": _q_pipeline_quality_dedup,
        "docs_jsonl_roundtrip": _q_docs_jsonl_roundtrip,
        "docs_csv_roundtrip": _q_docs_csv_roundtrip,
        "docs_split_assign": _q_docs_split_assign,
        "text_top_tokens_per_lang": _q_text_top_tokens_per_lang,
        "corpus_report": _q_corpus_report,
        "link_degree_hist": _q_link_degree_hist,
        "dedup_survivors": _q_dedup_survivors,
        "dedup_survivors_quality": _q_dedup_survivors_quality,
        "dedup_incremental": _q_dedup_incremental,
        "convert_docx": _q_convert_docx,
        "convert_xlsx": _q_convert_xlsx,
        "convert_pdf": _q_convert_pdf,
        "text_pii_scrub": _q_pii_scrub,
        "cluster_assign": _q_cluster_assign,
        "cluster_kmeans": _q_kmeans,
        "dedup_spans": _q_dup_spans,
        "text_normalize": _q_normalize,
    }


# ---------------------------------------------------------------------------
# oracle SQL (DuckDB dialect; tables pre-registered as views)
# ---------------------------------------------------------------------------

_STOP_LIST = "('the','a','an','and','of','to','in','is','it','that')"

# PII regexes, verbatim from raycrawl/ops/textstats.py — single-quoted SQL
# strings pass backslashes through to DuckDB's RE2 untouched
_PII_E = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_P = r"(\+1[- ])?\d{3}-\d{3}-\d{4}"
_PII_I = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


_QUANT = ("list_transform(embedding, x -> "
          "CAST(floor(CAST(x AS DOUBLE) * 1048576 + 0.5) AS BIGINT))")


def _kmeans_oracle(k: int = 4, iters: int = 2) -> str:
    """SQL mirror of raycrawl/ops/cluster.py::kmeans_fit — the Lloyd
    iterations unrolled as CTE chains (assign → floor-mean update), all
    in int64 arithmetic. Floor division of possibly-negative sums uses
    (s - ((s%n)+n)%n) // n because DuckDB's ``//`` truncates toward zero
    while numpy's floors."""
    ctes = [
        f"vq AS (SELECT vec_id, unnest({_QUANT}) AS vv, "
        "unnest(range(1, len(embedding) + 1)) AS i FROM embeddings)",
        f"cq0 AS (SELECT cluster_id, unnest({_QUANT.replace('embedding', 'emb')}) AS cv, "
        "unnest(range(1, len(emb) + 1)) AS i FROM "
        "(SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster_id, "
        f"embedding AS emb FROM embeddings WHERE vec_id < {k}))",
    ]
    for it in range(iters):
        ctes.append(
            f"d{it} AS (SELECT vq.vec_id, cq{it}.cluster_id, "
            "sum((vv - cv) * (vv - cv)) AS dist "
            f"FROM vq JOIN cq{it} ON vq.i = cq{it}.i "
            "GROUP BY vq.vec_id, cq{it}.cluster_id)".replace("{it}", str(it)))
        ctes.append(
            f"a{it} AS (SELECT vec_id, cluster_id FROM "
            f"(SELECT vec_id, cluster_id, row_number() OVER (PARTITION BY vec_id "
            f"ORDER BY dist, cluster_id) AS rn FROM d{it}) WHERE rn = 1)")
        ctes.append(
            f"u{it} AS (SELECT cluster_id, i, "
            "(s - ((s % n) + n) % n) // n AS cv FROM "
            f"(SELECT a{it}.cluster_id, vq.i, sum(vq.vv) AS s, "
            f"CAST(count(*) AS BIGINT) AS n FROM a{it} "
            f"JOIN vq ON vq.vec_id = a{it}.vec_id GROUP BY a{it}.cluster_id, vq.i))")
        ctes.append(
            f"cq{it + 1} AS (SELECT cq{it}.cluster_id, cq{it}.i, "
            f"COALESCE(u{it}.cv, cq{it}.cv) AS cv FROM cq{it} "
            f"LEFT JOIN u{it} ON u{it}.cluster_id = cq{it}.cluster_id "
            f"AND u{it}.i = cq{it}.i)")
    ctes.append(
        f"df AS (SELECT vq.vec_id, cq{iters}.cluster_id, "
        "sum((vv - cv) * (vv - cv)) AS dist "
        f"FROM vq JOIN cq{iters} ON vq.i = cq{iters}.i "
        f"GROUP BY vq.vec_id, cq{iters}.cluster_id)")
    return (
        "WITH " + ", ".join(ctes) + " "
        "SELECT vec_id, CAST(cluster_id AS BIGINT) AS cluster_id, "
        "CAST(dist AS BIGINT) AS dist_sq FROM "
        "(SELECT vec_id, cluster_id, dist, row_number() OVER "
        "(PARTITION BY vec_id ORDER BY dist, cluster_id) AS rn FROM df) "
        "WHERE rn = 1"
    )


_EN = "('the','a','and','of','to','in','is','it','that','for','on','with')"
_FR = "('le','la','les','de','des','et','un','une','est','que','pour','dans')"
_DE = "('der','die','das','und','ist','ein','eine','zu','den','von','mit','für')"
_ES = "('el','la','los','las','de','y','un','una','es','que','por','con')"


# --- blocked-candidate SQL fragments (VERDICT r4 item 4) -------------------
# The n²/2 cross-join Jaccard oracles were quadratic-in-DuckDB (>25 min at
# sf0.1); these compute the SAME exact answer via shared-shingle blocking:
# a pair with jaccard >= t > 0 must share >= 1 distinct 3-gram (the only
# j >= t pairs with zero shared grams are empty-vs-empty, where the
# convention is j = 1.0 — handled by the explicit empty×empty branch), and
# |A∩B| for distinct-gram sets IS the gram-join group count, so no
# list_intersect re-verification is needed. Value-equality with the brute
# force form is pinned by tests/test_oracle_blocking.py.

_SH_CTE = (
    "w AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN [] "
    "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks FROM documents), "
    "sh AS (SELECT doc_id, CASE WHEN len(toks) = 0 THEN [] "
    "  WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')] "
    "  ELSE list_distinct(list_transform(generate_series(1, len(toks)-2), "
    "    i -> toks[i]||' '||toks[i+1]||' '||toks[i+2])) END AS s FROM w), "
)

_BLOCKED_J_CTE = (
    _SH_CTE +
    "g AS (SELECT doc_id, unnest(s) AS g FROM sh), "
    "cand AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS inter "
    "  FROM g a JOIN g b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2), "
    "sz AS (SELECT doc_id, len(s) AS n FROM sh), "
    "p AS (SELECT c.id_a, c.id_b, c.inter, sa.n + sb.n AS tot "
    "  FROM cand c JOIN sz sa ON sa.doc_id = c.id_a "
    "  JOIN sz sb ON sb.doc_id = c.id_b "
    "  UNION ALL SELECT a.doc_id, b.doc_id, 0, 0 "
    "  FROM sz a JOIN sz b ON a.doc_id < b.doc_id WHERE a.n = 0 AND b.n = 0), "
    "j AS (SELECT id_a, id_b, CASE WHEN tot - inter = 0 THEN 1.0 "
    "  ELSE CAST(inter AS DOUBLE) / (tot - inter) END AS jaccard_sim FROM p)"
)


def oracle_sql() -> dict[str, str]:
    oracle_dir = _crawl_oracle_dir()
    bpe_dir = _bpe_oracle_dir()
    return {
        # overlong-doc windowing: list_slice token windows of 32
        "text_split_overlong": (
            "WITH w AS (SELECT doc_id, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM documents), "
            "pieces AS (SELECT doc_id, unnest(list_transform("
            "  generate_series(0, CAST(ceil(len(toks)/32.0) AS BIGINT) - 1), "
            "  i -> struct_pack(i := i, p := array_to_string("
            "    list_slice(toks, i*32+1, LEAST((i+1)*32, len(toks))), ' ')"
            "))) AS u FROM w WHERE len(toks) > 0) "
            "SELECT doc_id, CAST(u.i AS BIGINT) AS piece_idx, "
            "CAST(len(regexp_split_to_array(u.p, '\\s+')) AS BIGINT) "
            "AS n_tokens, u.p AS piece FROM pieces "
            "UNION ALL "
            "SELECT doc_id, 0, 0, '' FROM w WHERE len(toks) = 0"
        ),
        # deterministic shuffle: rank = row_number over the 64-bit md5
        # hex prefix (same order as the engine's bucketed ranking)
        "corpus_shuffle": (
            "SELECT doc_id, CAST(row_number() OVER (ORDER BY "
            "('0x'||substr(md5('sh0'||CAST(doc_id AS VARCHAR)),1,16))"
            "::UBIGINT, doc_id) - 1 AS BIGINT) AS shuffle_rank "
            "FROM documents"
        ),
        # source-weighted mixing: keep iff the 60-bit md5 prefix times the
        # scale is below w·2^60, cross-multiplied in HUGEINT per source
        "corpus_mix": (
            "WITH t AS (SELECT doc_id, "
            "  CASE doc_id % 3 WHEN 0 THEN 'web' WHEN 1 THEN 'books' "
            "  ELSE 'code' END AS source, "
            "  CASE doc_id % 3 WHEN 0 THEN 90 WHEN 1 THEN 50 "
            "  ELSE 20 END AS w FROM documents) "
            "SELECT doc_id, source FROM t "
            "WHERE ('0x'||substr(md5('mix0'||CAST(doc_id AS VARCHAR)),1,15))"
            "::UBIGINT::HUGEINT * 100 "
            "< CAST(w AS BIGINT) * CAST(1152921504606846976 AS HUGEINT)"
        ),
        # incremental near-dup vs the staged index: brute-force
        # new-shard × corpus 3-gram Jaccard at the probe's threshold
        # (same shingle CTE + rational-Jaccard form as dedup_jaccard_pairs)
        "dedup_incremental_near": (
            "WITH nd AS (SELECT doc_id + 1099511627776 AS doc_id, "
            "  COALESCE(text, '') || ' znovel' || CAST(doc_id AS VARCHAR) "
            "  AS text FROM documents WHERE doc_id % 5 = 0), "
            "wn AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM nd), "
            "wc AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM documents), "
            "sn AS (SELECT doc_id, CASE WHEN len(toks) = 0 THEN [] "
            "  WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')] "
            "  ELSE list_distinct(list_transform(generate_series(1, len(toks)-2), "
            "    i -> toks[i]||' '||toks[i+1]||' '||toks[i+2])) END AS s FROM wn), "
            "sc2 AS (SELECT doc_id, CASE WHEN len(toks) = 0 THEN [] "
            "  WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')] "
            "  ELSE list_distinct(list_transform(generate_series(1, len(toks)-2), "
            "    i -> toks[i]||' '||toks[i+1]||' '||toks[i+2])) END AS s FROM wc), "
            # shared-shingle blocking, same exactness argument as
            # _BLOCKED_J_CTE; new-shard docs are never empty (a novel
            # token is always appended), so no empty×empty branch exists
            "gn AS (SELECT doc_id, unnest(s) AS g FROM sn), "
            "gc AS (SELECT doc_id, unnest(s) AS g FROM sc2), "
            "cand AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "  count(*) AS inter FROM gn a JOIN gc b ON a.g = b.g "
            "  GROUP BY 1, 2), "
            "p AS (SELECT c.id_a, c.id_b, c.inter, "
            "  len(sa.s) + len(sb.s) AS tot FROM cand c "
            "  JOIN sn sa ON sa.doc_id = c.id_a "
            "  JOIN sc2 sb ON sb.doc_id = c.id_b), "
            "j AS (SELECT id_a, id_b, CASE WHEN tot - inter = 0 THEN 1.0 "
            "  ELSE CAST(inter AS DOUBLE) / (tot - inter) END AS jaccard_sim FROM p) "
            "SELECT id_a, id_b, jaccard_sim FROM j WHERE jaccard_sim >= 0.8"
        ),
        # CCNet tercile partitioning: same score CTE as
        # text_unigram_commonness, thresholds = exact order statistics at
        # idx = q*(n-1)//3 (row_number convention matches the engine's
        # exact_quantile_selection), value-deterministic <= comparisons
        "text_commonness_buckets": (
            "WITH w AS (SELECT doc_id, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN [] "
            "       ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM documents), "
            "t AS (SELECT doc_id, unnest(toks) AS w FROM w), "
            "c AS (SELECT w, count(*) AS cnt FROM t GROUP BY w), "
            "s AS (SELECT t.doc_id, sum(c.cnt) AS sum_freq FROM t "
            "  JOIN c ON t.w = c.w GROUP BY t.doc_id), "
            "sc AS (SELECT w.doc_id, CAST(COALESCE(s.sum_freq, 0) AS BIGINT) "
            "  AS sum_freq FROM w LEFT JOIN s ON w.doc_id = s.doc_id), "
            "rk AS (SELECT sum_freq, row_number() OVER (ORDER BY sum_freq) "
            "  AS rn FROM sc), "
            "n AS (SELECT count(*) AS n FROM sc), "
            "t33 AS (SELECT sum_freq AS v FROM rk "
            "  WHERE rn = (SELECT ((n - 1) * 1) // 3 + 1 FROM n)), "
            "t66 AS (SELECT sum_freq AS v FROM rk "
            "  WHERE rn = (SELECT ((n - 1) * 2) // 3 + 1 FROM n)) "
            "SELECT doc_id, sum_freq, "
            "CASE WHEN sum_freq <= (SELECT v FROM t33) THEN 'tail' "
            "WHEN sum_freq <= (SELECT v FROM t66) THEN 'middle' "
            "ELSE 'head' END AS bucket FROM sc"
        ),
        # greedy first-fit sequence packing replayed as a per-shard
        # recursive CTE — the same (seq, offset, fill) fold the engine's
        # shard-local loop runs
        "text_pack_sequences": (
            "WITH RECURSIVE tok AS (SELECT doc_id, doc_id // 128 AS shard, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN 1 "
            "  ELSE length(regexp_split_to_array(trim(text), '\\s+')) END AS n "
            "  FROM documents), "
            "ord AS (SELECT doc_id, shard, n, row_number() OVER "
            "  (PARTITION BY shard ORDER BY doc_id) AS rn FROM tok), "
            "acc AS ("
            "  SELECT shard, rn, doc_id, n, CAST(0 AS BIGINT) AS seq_local, "
            "    CAST(0 AS BIGINT) AS off, n AS fill FROM ord WHERE rn = 1 "
            "  UNION ALL "
            "  SELECT o.shard, o.rn, o.doc_id, o.n, "
            "    CASE WHEN a.fill + o.n <= 256 THEN a.seq_local "
            "         ELSE a.seq_local + 1 END, "
            "    CASE WHEN a.fill + o.n <= 256 THEN a.fill "
            "         ELSE CAST(0 AS BIGINT) END, "
            "    CASE WHEN a.fill + o.n <= 256 THEN a.fill + o.n ELSE o.n END "
            "  FROM acc a JOIN ord o ON o.shard = a.shard "
            "    AND o.rn = a.rn + 1) "
            "SELECT doc_id, CAST(shard AS BIGINT) AS shard, seq_local, "
            "off AS \"offset\", CAST(n AS BIGINT) AS n_tokens FROM acc"
        ),
        # BPE tokenizer vs the independent serial reference, matched to
        # the registered documents view by (row count, total chars) —
        # both 500-row sf dirs exist, so count alone is ambiguous
        "text_bpe_tokens": (
            f"SELECT doc_id, n_bpe_tokens, n_words "
            f"FROM read_parquet('{bpe_dir}/*.parquet') "
            "WHERE n_docs = (SELECT count(*) FROM documents) "
            "AND total_chars = (SELECT sum(length(COALESCE(text, ''))) "
            "FROM documents)"
        ),
        # the id-emission path against the same serial reference
        "text_bpe_encode": (
            f"SELECT doc_id, n_bpe_tokens, ids_csv "
            f"FROM read_parquet('{bpe_dir}/*.parquet') "
            "WHERE n_docs = (SELECT count(*) FROM documents) "
            "AND total_chars = (SELECT sum(length(COALESCE(text, ''))) "
            "FROM documents)"
        ),
        # crawl conformance: the Ray sharded-frontier engine vs the
        # independent single-threaded reference model (raycrawl/oracle.py),
        # exact (seq, depth, url, parent) / seen-set equality
        "crawl_bfs": (
            f"SELECT seq, depth, url, parent_url "
            f"FROM read_parquet('{oracle_dir}/crawl_bfs.parquet')"
        ),
        "crawl_seen": (
            f"SELECT url, depth, seq "
            f"FROM read_parquet('{oracle_dir}/crawl_seen.parquet')"
        ),
        # duplicated-5-gram fraction: document frequency per gram, per-doc
        # occurrence share over df>=2 grams; identical int/DOUBLE math
        "text_dup_ngrams": (
            "WITH w AS (SELECT doc_id, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM documents), "
            "g AS (SELECT doc_id, unnest(list_transform("
            "  generate_series(1, len(toks) - 4), "
            "  i -> toks[i]||' '||toks[i+1]||' '||toks[i+2]||' '"
            "||toks[i+3]||' '||toks[i+4])) AS g5 "
            "  FROM w WHERE len(toks) >= 5), "
            "df AS (SELECT g5 FROM (SELECT g5, count(DISTINCT doc_id) AS df "
            "  FROM g GROUP BY g5) WHERE df >= 2), "
            "num AS (SELECT doc_id, count(*) AS n_dup FROM g "
            "  WHERE g5 IN (SELECT g5 FROM df) GROUP BY doc_id), "
            "den AS (SELECT doc_id, GREATEST(len(toks) - 4, 0) AS n_ngrams "
            "  FROM w) "
            "SELECT den.doc_id, CAST(COALESCE(n.n_dup, 0) AS BIGINT) "
            "AS n_dup_ngrams, CAST(den.n_ngrams AS BIGINT) AS n_ngrams, "
            "CASE WHEN den.n_ngrams = 0 THEN 0.0 "
            "ELSE CAST(COALESCE(n.n_dup, 0) AS DOUBLE) / den.n_ngrams END "
            "AS dup_ngram_frac "
            "FROM den LEFT JOIN num n USING (doc_id)"
        ),
        # anchor-text index: the corpus link lattice is closed-form in
        # doc_id (4-ary tree per host in doc_id order, 'next {rank}'
        # labels — fixtures.pages_from_documents), so the whole
        # per-target aggregate is reconstructible in SQL
        "link_anchor_texts": (
            "WITH d AS (SELECT doc_id, doc_id % 16 AS h, "
            "  row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id)"
            "  - 1 AS r FROM documents), "
            "e AS (SELECT c.doc_id AS dst_id, "
            "  'next ' || CAST(c.r AS VARCHAR) AS t "
            "  FROM d p JOIN d c ON c.h = p.h "
            "  AND c.r BETWEEN 4*p.r + 1 AND 4*p.r + 4) "
            "SELECT dst_id AS doc_id, CAST(count(*) AS BIGINT) AS n_anchors, "
            "array_to_string(list_sort(list_distinct(list(t))), ' | ') "
            "AS anchor_texts FROM e GROUP BY dst_id"
        ),
        # WARC-sink conformance: the archives must contain exactly the
        # crawled pages with byte-identical payloads (digests computed
        # independently from the corpus at oracle-materialization time)
        "crawl_warc": (
            f"SELECT o.url, d.n_bytes, d.sha1hex "
            f"FROM read_parquet('{oracle_dir}/crawl_bfs.parquet') o "
            f"JOIN read_parquet('{oracle_dir}/corpus_digest.parquet') d "
            "USING (url)"
        ),
        "crawl_politeness": (
            f"SELECT seq, depth, url "
            f"FROM read_parquet('{oracle_dir}/crawl_polite.parquet')"
        ),
        "crawl_priority": (
            "SELECT pop_rank, seq, depth, url "
            f"FROM read_parquet('{oracle_dir}/crawl_priority.parquet')"
        ),
        "extract_pages": (
            "SELECT 'Doc ' || CAST(doc_id AS VARCHAR) AS title, "
            "lang AS language, CAST(200 AS INTEGER) AS status_code FROM documents"
        ),
        "extract_links": (
            "WITH ranked AS (SELECT doc_id, doc_id % 16 AS h, "
            "  row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id) - 1 AS rnk "
            "  FROM documents) "
            "SELECT p.doc_id AS src_doc_id, c.doc_id AS dst_doc_id "
            "FROM ranked p JOIN ranked c ON c.h = p.h "
            "AND c.rnk IN (4*p.rnk+1, 4*p.rnk+2, 4*p.rnk+3, 4*p.rnk+4)"
        ),
        # WARC roundtrip e2e: title/description/lang are closed forms of
        # the documents row; n_links = |{k in 1..4 : 4*rnk+k < n}| in the
        # per-host 4-ary lattice the corpus builder emits
        "warc_extract": (
            "WITH ranked AS (SELECT doc_id, lang, doc_id % 16 AS h, "
            "  row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id) - 1 AS rnk, "
            "  count(*) OVER (PARTITION BY doc_id % 16) AS n FROM documents) "
            "SELECT doc_id, 'Doc ' || CAST(doc_id AS VARCHAR) AS title, "
            "lang AS language, CAST(200 AS INTEGER) AS status_code, "
            "'document ' || CAST(doc_id AS VARCHAR) AS description, "
            "CAST(GREATEST(0, LEAST(4, n - 1 - 4*rnk)) AS BIGINT) AS n_links "
            "FROM ranked"
        ),
        "link_pagerank": _pagerank_oracle(num_iters=5),
        "host_rank_mass": _pagerank_oracle(
            num_iters=5,
            final=(" SELECT doc_id % 16 AS h, "
                   "CAST(sum(r) AS BIGINT) AS rank_mass "
                   "FROM r5 GROUP BY doc_id % 16")),
        # URL templates: the corpus URL is a closed form of the documents
        # row, so the digit-collapsed template is per-host constant
        "url_templates": (
            "SELECT 'docs' || CAST(doc_id % 16 AS VARCHAR) "
            " || '.example/dN/docN.html' AS template, "
            "CAST(count(*) AS BIGINT) AS cnt "
            "FROM documents GROUP BY doc_id % 16"
        ),
        # two-pass conditional LM-filter surrogate: corpus bigram counts →
        # per-doc (n_bigrams, sum of corpus freqs, corpus-novel count)
        "text_bigram_commonness": (
            "WITH w AS (SELECT doc_id, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN [''] "
            "       ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM documents), "
            "tk AS (SELECT doc_id, unnest(toks) AS w, "
            "  unnest(range(1, length(toks) + 1)) AS i FROM w), "
            "bg AS (SELECT a.doc_id, a.w AS w1, c.w AS w2 FROM tk a "
            "  JOIN tk c ON c.doc_id = a.doc_id AND c.i = a.i + 1), "
            "cnt AS (SELECT w1, w2, count(*) AS c FROM bg GROUP BY w1, w2), "
            "per AS (SELECT bg.doc_id, count(*) AS nb, sum(cnt.c) AS sf, "
            "  sum(CASE WHEN cnt.c = 1 THEN 1 ELSE 0 END) AS nn "
            "  FROM bg JOIN cnt USING (w1, w2) GROUP BY bg.doc_id) "
            "SELECT d.doc_id, CAST(COALESCE(per.nb, 0) AS BIGINT) AS n_bigrams, "
            "CAST(COALESCE(per.sf, 0) AS BIGINT) AS sum_bg_freq, "
            "CAST(COALESCE(per.nn, 0) AS BIGINT) AS n_novel "
            "FROM documents d LEFT JOIN per USING (doc_id)"
        ),
        # who-links-here over the lattice edges, target subset dst % 97 = 1
        "link_backlinks": (
            "WITH ranked AS (SELECT doc_id, doc_id % 16 AS h, "
            "  row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id) - 1 AS rnk "
            "  FROM documents) "
            "SELECT c.doc_id AS dst_doc_id, p.doc_id AS src_doc_id "
            "FROM ranked p JOIN ranked c ON c.h = p.h "
            "AND c.rnk IN (4*p.rnk+1, 4*p.rnk+2, 4*p.rnk+3, 4*p.rnk+4) "
            "WHERE c.doc_id % 97 = 1"
        ),
        # staleness × importance refetch budget: warc_ts is EPOCH + global
        # write row (hosts in h order, ranks ascending), age at the fixed
        # 2025-07-01 instant, times the unrolled PageRank
        "recrawl_schedule": _pagerank_oracle(
            num_iters=5,
            final=(" SELECT t.doc_id, "
                   "CAST(date_diff('second', t.ts, TIMESTAMP '2025-07-01') "
                   " * r5.r AS BIGINT) AS score "
                   "FROM (SELECT doc_id, TIMESTAMP '2025-01-01' + "
                   " to_seconds(row_number() OVER (ORDER BY h, rnk) - 1) AS ts "
                   " FROM ranked) t "
                   "JOIN r5 ON r5.doc_id = t.doc_id "
                   "ORDER BY score DESC, t.doc_id LIMIT 100")),
        # lattice edges stay within a host, and each host's lattice is one
        # tree → components are exactly the host partitions
        "graph_hits": _hits_oracle(num_iters=5),
        "link_bfs_depth": _bfs_oracle(max_depth=8),
        "graph_components": (
            "SELECT doc_id AS node, "
            "min(doc_id) OVER (PARTITION BY doc_id % 16) AS component "
            "FROM documents"
        ),
        # recrawl delta: v2 = remove 1-in-13, edit 1-in-5, add 1-in-11
        "crawl_delta": (
            "WITH newt AS ("
            " SELECT doc_id, CASE WHEN doc_id % 5 = 0 "
            "  THEN COALESCE(text, '') || ' v2' ELSE COALESCE(text, '') END AS text "
            " FROM documents WHERE doc_id % 13 <> 7 "
            " UNION ALL "
            " SELECT doc_id + 1099511627776 AS doc_id, "
            "  'new page ' || CAST(doc_id AS VARCHAR) AS text "
            " FROM documents WHERE doc_id % 11 = 0) "
            "SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id, "
            "CASE WHEN o.doc_id IS NULL THEN 'added' "
            " WHEN n.doc_id IS NULL THEN 'removed' "
            " ELSE 'changed' END AS status "
            "FROM documents o FULL OUTER JOIN newt n USING (doc_id) "
            "WHERE o.doc_id IS NULL OR n.doc_id IS NULL "
            " OR COALESCE(o.text, '') <> n.text"
        ),
        "dedup_exact": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)"
        ),
        # incremental-ingestion hash semi-join: new shard vs staged corpus
        "dedup_incremental": (
            "WITH n AS (SELECT doc_id + 1099511627776 AS doc_id, "
            "  CASE WHEN doc_id % 3 = 0 "
            "  THEN text || ' uniq' || CAST(doc_id AS VARCHAR) "
            "  ELSE text END AS text FROM documents) "
            "SELECT n.doc_id FROM n WHERE EXISTS "
            "(SELECT 1 FROM documents d WHERE d.text = n.text)"
        ),
        "crawl_bfs_docs": (
            "WITH ranked AS (SELECT doc_id, "
            "  row_number() OVER (ORDER BY doc_id) - 1 AS rnk "
            "  FROM documents WHERE doc_id % 16 = 0) "
            "SELECT CAST(rnk AS BIGINT) AS seq, "
            "CAST(CASE WHEN rnk = 0 THEN 0 WHEN rnk <= 4 THEN 1 "
            "WHEN rnk <= 20 THEN 2 WHEN rnk <= 84 THEN 3 "
            "WHEN rnk <= 340 THEN 4 WHEN rnk <= 1364 THEN 5 "
            "WHEN rnk <= 5460 THEN 6 ELSE 7 END AS INTEGER) AS depth, "
            "doc_id FROM ranked"
        ),
        "chunk_semantic": (
            # documents-corpus pages render to exactly one semantic chunk:
            # body words + 2 markdown-link tokens per child in the 4-ary
            # lattice (header line dropped by the chunker quirk)
            "WITH ranked AS (SELECT doc_id, doc_id % 16 AS h, "
            "  row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id) - 1 AS rnk, "
            "  count(*) OVER (PARTITION BY doc_id % 16) AS n, "
            "  CASE WHEN trim(text) = '' THEN 0 ELSE "
            "  length(regexp_split_to_array(trim(text), '\\s+')) END AS tw "
            "  FROM documents) "
            "SELECT doc_id, CAST(0 AS INTEGER) AS position, "
            "'text' AS chunk_type, "
            "CAST(tw + 2 * GREATEST(0, LEAST(n - 1, 4*rnk + 4) - 4*rnk) AS INTEGER) AS word_count "
            "FROM ranked"
        ),
        # sentence chunker recomputed exactly: the lookbehind-free split
        # (punct+ws → sentinel, then split on sentinel|newlines), the
        # <12-char merge-forward as a prefix-sum unit id, and the greedy
        # 64-word packing with ≤8-word suffix overlap as a recursive CTE
        # stepping one unit per iteration per doc
        "chunk_sentence": (
            "WITH RECURSIVE "
            "s0 AS (SELECT doc_id, regexp_split_to_array("
            "  regexp_replace(text, '([.!?])(\\s+)', '\\1' || chr(1), 'g'), "
            "  chr(1) || '|\\n+') AS pieces FROM documents), "
            "s1 AS (SELECT doc_id, trim(p) AS s, idx FROM "
            "  (SELECT doc_id, unnest(pieces) AS p, "
            "   unnest(generate_series(1, len(pieces))) AS idx FROM s0)), "
            "s2 AS (SELECT doc_id, s, "
            "  row_number() OVER (PARTITION BY doc_id ORDER BY idx) AS pos "
            "  FROM s1 WHERE length(s) > 0), "
            "u0 AS (SELECT doc_id, s, pos, "
            "  sum(CASE WHEN pos = 1 OR length(s) >= 12 THEN 1 ELSE 0 END) "
            "    OVER (PARTITION BY doc_id ORDER BY pos) AS uid, "
            "  length(regexp_split_to_array(s, '\\s+')) AS nw FROM s2), "
            "units AS (SELECT doc_id, uid, CAST(sum(nw) AS BIGINT) AS w "
            "  FROM u0 GROUP BY doc_id, uid), "
            "nunits AS (SELECT doc_id, max(uid) AS n FROM units GROUP BY doc_id), "
            "walk(doc_id, i, cur, chunks) AS ("
            "  SELECT doc_id, CAST(0 AS BIGINT), CAST([] AS BIGINT[]), "
            "    CAST([] AS BIGINT[]) FROM nunits "
            "  UNION ALL "
            "  SELECT w.doc_id, w.i + 1, "
            "    CASE WHEN len(w.cur) > 0 AND coalesce(list_sum(w.cur), 0) + u.w > 64 "
            "    THEN list_append(CASE "
            "      WHEN coalesce(list_sum(w.cur[-8:]), 0) <= 8 THEN w.cur[-8:] "
            "      WHEN coalesce(list_sum(w.cur[-7:]), 0) <= 8 THEN w.cur[-7:] "
            "      WHEN coalesce(list_sum(w.cur[-6:]), 0) <= 8 THEN w.cur[-6:] "
            "      WHEN coalesce(list_sum(w.cur[-5:]), 0) <= 8 THEN w.cur[-5:] "
            "      WHEN coalesce(list_sum(w.cur[-4:]), 0) <= 8 THEN w.cur[-4:] "
            "      WHEN coalesce(list_sum(w.cur[-3:]), 0) <= 8 THEN w.cur[-3:] "
            "      WHEN coalesce(list_sum(w.cur[-2:]), 0) <= 8 THEN w.cur[-2:] "
            "      WHEN coalesce(list_sum(w.cur[-1:]), 0) <= 8 THEN w.cur[-1:] "
            "      ELSE CAST([] AS BIGINT[]) END, u.w) "
            "    ELSE list_append(w.cur, u.w) END, "
            "    CASE WHEN len(w.cur) > 0 AND coalesce(list_sum(w.cur), 0) + u.w > 64 "
            "    THEN list_append(w.chunks, coalesce(list_sum(w.cur), 0)) "
            "    ELSE w.chunks END "
            "  FROM walk w JOIN units u ON u.doc_id = w.doc_id AND u.uid = w.i + 1), "
            "fin AS (SELECT w.doc_id, "
            "  list_append(w.chunks, coalesce(list_sum(w.cur), 0)) AS chunks "
            "  FROM walk w JOIN nunits n ON n.doc_id = w.doc_id AND w.i = n.n "
            "  WHERE len(w.cur) > 0) "
            "SELECT doc_id, CAST(idx - 1 AS INTEGER) AS position, "
            "  CAST(c AS INTEGER) AS word_count FROM "
            "  (SELECT doc_id, unnest(chunks) AS c, "
            "   unnest(generate_series(1, len(chunks))) AS idx FROM fin)"
        ),
        "chunk_stats": (
            # A3 aggregate over the chunk_semantic closed form: every
            # documents-corpus page renders to exactly one 'text' chunk
            "WITH ranked AS (SELECT doc_id, doc_id % 16 AS h, "
            "  row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id) - 1 AS rnk, "
            "  count(*) OVER (PARTITION BY doc_id % 16) AS n, "
            "  CASE WHEN trim(text) = '' THEN 0 ELSE "
            "  length(regexp_split_to_array(trim(text), '\\s+')) END AS tw "
            "  FROM documents), "
            "c AS (SELECT CAST(tw + 2 * GREATEST(0, LEAST(n - 1, 4*rnk + 4) - 4*rnk) AS INTEGER) AS word_count "
            "FROM ranked) "
            "SELECT 'text' AS chunk_type, CAST(count(*) AS BIGINT) AS total_chunks, "
            "CAST(sum(word_count) AS BIGINT) AS total_words, "
            "CAST(sum(word_count) AS DOUBLE) / count(*) AS avg_words FROM c"
        ),
        "text_token_count": (
            "SELECT doc_id, CAST(CASE WHEN trim(text) = '' THEN 1 ELSE "
            "length(regexp_split_to_array(trim(text), '\\s+')) END AS BIGINT) "
            "AS n_tokens FROM documents"
        ),
        # Gopher word-level quality rules: every threshold an integer
        # cross-multiplication, keep flag bit-exact
        "text_gopher_quality": (
            "WITH w AS (SELECT doc_id, COALESCE(text, '') AS t, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN [] "
            "       ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM documents), "
            "m AS (SELECT doc_id, CAST(length(toks) AS BIGINT) AS n_words, "
            "  CAST(COALESCE(list_sum(list_transform(toks, x -> length(x))), 0) AS BIGINT) AS total_word_chars, "
            "  CAST(COALESCE(list_sum(list_transform(toks, x -> CASE WHEN regexp_matches(x, '[A-Za-z]') THEN 1 ELSE 0 END)), 0) AS BIGINT) AS n_alpha_words, "
            "  CAST(length(t) - length(replace(t, '#', '')) "
            "   + (length(t) - length(replace(t, '...', ''))) // 3 AS BIGINT) AS n_symbols, "
            "  CAST(" + " + ".join(
                f"CASE WHEN list_contains(toks, '{s}') THEN 1 ELSE 0 END"
                for s in ("the", "a", "an", "and", "of", "to", "in", "is",
                          "it", "that"))
            + " AS BIGINT) AS n_stop_distinct FROM w) "
            "SELECT doc_id, n_words, total_word_chars, n_alpha_words, "
            "n_symbols, n_stop_distinct, "
            "(n_words >= 50 AND n_words <= 100000 "
            " AND 3 * n_words <= total_word_chars AND total_word_chars <= 10 * n_words "
            " AND 10 * n_symbols < n_words "
            " AND 5 * n_alpha_words >= 4 * n_words "
            " AND n_stop_distinct >= 2) AS keep FROM m"
        ),
        # corpus top-50 adjacent-bigram collocations, (w1,w2) tie-break
        "text_collocations": (
            "WITH w AS (SELECT doc_id, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN [''] "
            "       ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM documents), "
            "tk AS (SELECT doc_id, unnest(toks) AS w, "
            "  unnest(range(1, length(toks) + 1)) AS i FROM w), "
            "b AS (SELECT a.w AS w1, c.w AS w2 FROM tk a "
            "  JOIN tk c ON c.doc_id = a.doc_id AND c.i = a.i + 1) "
            "SELECT w1, w2, CAST(count(*) AS BIGINT) AS cnt FROM b "
            "GROUP BY w1, w2 ORDER BY cnt DESC, w1, w2 LIMIT 50"
        ),
        # two-pass percentile quality gate: exact P90 order statistic of
        # the token count (idx = (9*(n-1))//10), then filter
        "text_quality_gate": (
            "WITH w AS (SELECT doc_id, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN 1 "
            "       ELSE length(regexp_split_to_array(trim(text), '\\s+')) "
            "  END AS n_tokens FROM documents), "
            "r AS (SELECT n_tokens, "
            "  row_number() OVER (ORDER BY n_tokens) - 1 AS rk FROM w), "
            "t AS (SELECT n_tokens AS thr FROM r "
            "  WHERE rk = (SELECT (9 * (count(*) - 1)) // 10 FROM w)) "
            "SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens FROM w "
            "WHERE n_tokens >= (SELECT thr FROM t)"
        ),
        # corpus vocabulary: total + exact distinct whitespace tokens
        "text_top_tokens_per_lang": (
            "WITH w AS (SELECT lang, CASE WHEN "
            "  trim(COALESCE(text, '')) = '' THEN [''] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END "
            "  AS toks FROM documents), "
            "t AS (SELECT lang, unnest(toks) AS tok FROM w), "
            "c AS (SELECT lang, tok, CAST(count(*) AS BIGINT) AS n "
            "  FROM t GROUP BY 1, 2), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY lang "
            "  ORDER BY n DESC, tok) AS rnk FROM c) "
            "SELECT lang, tok, n, CAST(rnk AS BIGINT) AS rnk "
            "FROM r WHERE rnk <= 5"
        ),
        "text_vocab": (
            "WITH w AS (SELECT CASE WHEN trim(COALESCE(text, '')) = '' "
            "  THEN [''] ELSE regexp_split_to_array(trim(text), '\\s+') "
            "  END AS toks FROM documents), "
            "t AS (SELECT unnest(toks) AS tok FROM w) "
            "SELECT CAST(count(*) AS BIGINT) AS n_tokens, "
            "CAST(count(DISTINCT tok) AS BIGINT) AS n_distinct_tokens FROM t"
        ),
        # REAL PNG decode (stdlib zlib codec) + integer channel stats,
        # pixel values regenerated closed-form:
        # value(i,y,x,c) = (i*7 + y*13 + x*17 + c*29) % 256
        "image_png_features": (
            "WITH ids AS (SELECT unnest(range(0, "
            "  (SELECT count(*) FROM documents))) AS image_id), "
            "dims AS (SELECT image_id, 16 + (image_id * 5) % 48 AS w, "
            "  16 + (image_id * 3) % 40 AS h FROM ids), "
            "yy AS (SELECT image_id, w, h, unnest(range(0, h)) AS y FROM dims), "
            "xx AS (SELECT image_id, w, h, y, unnest(range(0, w)) AS x FROM yy), "
            "v AS (SELECT image_id, w, h, "
            "  (image_id * 7 + y * 13 + x * 17) % 256 AS r, "
            "  (image_id * 7 + y * 13 + x * 17 + 29) % 256 AS g, "
            "  (image_id * 7 + y * 13 + x * 17 + 58) % 256 AS b FROM xx) "
            "SELECT image_id, CAST(max(w) AS BIGINT) AS width, "
            "CAST(max(h) AS BIGINT) AS height, "
            "CAST(sum(r) AS BIGINT) AS sum_r, CAST(sum(g) AS BIGINT) AS sum_g, "
            "CAST(sum(b) AS BIGINT) AS sum_b, "
            "CAST(greatest(max(r), max(g), max(b)) AS BIGINT) AS max_px "
            "FROM v GROUP BY image_id"
        ),
        # real baseline-JPEG decode: constant 8×8 blocks make the lossy
        # DCT round-trip exact — v = clamp(2·round_half_away((c-128)/2)
        # + 128) per block at quality 50 (Q00=16); both CASE branches
        # keep DuckDB's // operands non-negative
        "image_jpeg_features": (
            "WITH ids AS (SELECT unnest(range(0, "
            "  (SELECT count(*) FROM documents))) AS image_id), "
            "dims AS (SELECT image_id, 2 + (image_id * 3) % 6 AS bw, "
            "  2 + (image_id * 5) % 5 AS bh FROM ids), "
            "yy AS (SELECT image_id, bw, bh, unnest(range(0, bh)) AS by "
            "  FROM dims), "
            "xx AS (SELECT image_id, bw, bh, by, unnest(range(0, bw)) AS bx "
            "  FROM yy), "
            "cc AS (SELECT image_id, bw, bh, "
            "  (image_id * 7 + bx * 31 + by * 57) % 256 AS c FROM xx), "
            "vv AS (SELECT image_id, bw, bh, "
            "  CASE WHEN c >= 128 THEN least(255, "
            "    2 * ((128 * (c - 128) + 128) // 256) + 128) "
            "  ELSE greatest(0, "
            "    128 - 2 * ((128 * (128 - c) + 128) // 256)) END AS v "
            "  FROM cc) "
            "SELECT image_id, CAST(max(bw) * 8 AS BIGINT) AS width, "
            "CAST(max(bh) * 8 AS BIGINT) AS height, "
            "CAST(sum(64 * v) AS BIGINT) AS sum_px, "
            "CAST(min(v) AS BIGINT) AS min_px, "
            "CAST(max(v) AS BIGINT) AS max_px "
            "FROM vv GROUP BY image_id"
        ),
        # real PCM decode + integer features, regenerated closed-form
        "audio_features": (
            "WITH ids AS (SELECT unnest(range(0, "
            "  (SELECT count(*) FROM documents))) AS audio_id), "
            "sm AS (SELECT audio_id, "
            "  unnest(range(0, 1000 + audio_id % 500)) AS k FROM ids), "
            "v AS (SELECT audio_id, k, "
            "  (audio_id * 31 + k * 17) % 65536 - 32768 AS s FROM sm), "
            "lagd AS (SELECT audio_id, k, s, "
            "  lag(s) OVER (PARTITION BY audio_id ORDER BY k) AS prev FROM v) "
            "SELECT audio_id, CAST(count(*) AS BIGINT) AS n_samples, "
            "CAST(sum(s * s) AS BIGINT) AS energy, "
            "CAST(sum(CASE WHEN prev IS NOT NULL AND prev * s < 0 "
            "  THEN 1 ELSE 0 END) AS BIGINT) AS zero_crossings, "
            "CAST(max(abs(s)) AS BIGINT) AS peak "
            "FROM lagd GROUP BY audio_id"
        ),
        # two-pass corpus unigram frequencies → per-doc sum/min score
        "text_tfidf_top_terms": (
            "WITH toks AS MATERIALIZED (SELECT doc_id, "
            "  unnest(regexp_split_to_array(trim(text), '\\s+')) AS w "
            "  FROM documents WHERE trim(COALESCE(text, '')) <> ''), "
            "tf AS MATERIALIZED (SELECT doc_id, w, count(*) AS tf "
            "  FROM toks GROUP BY doc_id, w), "
            "dl AS MATERIALIZED (SELECT doc_id, count(*) AS dl "
            "  FROM toks GROUP BY doc_id), "
            "df AS MATERIALIZED (SELECT w, count(DISTINCT doc_id) AS df "
            "  FROM tf GROUP BY w), "
            "nn AS (SELECT count(*) AS n FROM dl), "
            "scored AS (SELECT tf.doc_id, tf.w AS term, "
            "  CAST((CAST(1000000 AS HUGEINT) * tf.tf "
            "        * (2 * (SELECT n FROM nn) - 2 * df.df + 1)) "
            "       // (dl.dl * (2 * df.df + 1)) AS BIGINT) AS score_fp "
            "  FROM tf JOIN df USING (w) JOIN dl USING (doc_id)), "
            "ranked AS (SELECT scored.*, row_number() OVER ("
            "  PARTITION BY doc_id ORDER BY score_fp DESC, term) AS rnk "
            "  FROM scored) "
            "SELECT doc_id, CAST(rnk AS BIGINT) AS rank, term, score_fp "
            "FROM ranked WHERE rnk <= 3"
        ),
        "text_unigram_commonness": (
            "WITH w AS (SELECT doc_id, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN [] "
            "       ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM documents), "
            "t AS (SELECT doc_id, unnest(toks) AS w FROM w), "
            "c AS (SELECT w, count(*) AS cnt FROM t GROUP BY w), "
            "s AS (SELECT t.doc_id, sum(c.cnt) AS sum_freq, "
            "  min(c.cnt) AS min_freq FROM t JOIN c ON t.w = c.w "
            "  GROUP BY t.doc_id) "
            "SELECT w.doc_id, CAST(COALESCE(s.sum_freq, 0) AS BIGINT) AS sum_freq, "
            "CAST(COALESCE(s.min_freq, 0) AS BIGINT) AS min_freq "
            "FROM w LEFT JOIN s ON w.doc_id = s.doc_id"
        ),
        # repetition signals: distinct words + top adjacent-bigram count
        "text_repetition": (
            "WITH w AS (SELECT doc_id, "
            "  CASE WHEN trim(COALESCE(text, '')) = '' THEN [] "
            "       ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks "
            "  FROM documents), "
            "tk AS (SELECT doc_id, unnest(toks) AS w, "
            "  unnest(range(1, length(toks) + 1)) AS i FROM w), "
            "b AS (SELECT a.doc_id, a.w || chr(1) || c.w AS bg "
            "  FROM tk a JOIN tk c ON c.doc_id = a.doc_id AND c.i = a.i + 1), "
            "cnt AS (SELECT doc_id, bg, count(*) AS c FROM b GROUP BY doc_id, bg), "
            "top AS (SELECT doc_id, max(c) AS top_bg FROM cnt GROUP BY doc_id) "
            "SELECT w.doc_id, CAST(length(toks) AS BIGINT) AS n_words, "
            "CAST(length(list_distinct(toks)) AS BIGINT) AS n_distinct_words, "
            "CAST(COALESCE(top.top_bg, 0) AS BIGINT) AS top_bigram_count "
            "FROM w LEFT JOIN top ON w.doc_id = top.doc_id"
        ),
        "text_quality": (
            "WITH w AS (SELECT doc_id, text, "
            "  CASE WHEN trim(text) = '' THEN [] "
            "       ELSE regexp_split_to_array(trim(text), '\\s+') END AS words "
            "  FROM documents) "
            "SELECT doc_id, "
            "CAST(length(text) AS BIGINT) AS n_chars, "
            "CAST(len(words) AS BIGINT) AS n_words, "
            "CAST(length(text) - length(regexp_replace(text, '[.!?]', '', 'g')) AS BIGINT) AS n_sentences, "
            f"CAST(len(list_filter(words, x -> x IN {_STOP_LIST})) AS BIGINT) AS n_stopwords, "
            f"CASE WHEN len(words) > 0 THEN CAST(len(list_filter(words, x -> x IN {_STOP_LIST})) AS DOUBLE) / len(words) ELSE 0.0 END AS stop_ratio, "
            "CASE WHEN len(words) > 0 THEN CAST(list_sum(list_transform(words, x -> length(x))) AS DOUBLE) / len(words) ELSE 0.0 END AS mean_word_len "
            "FROM w"
        ),
        "text_lang_id": (
            "WITH w AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN [] ELSE "
            "  list_transform(regexp_split_to_array(trim(text), '\\s+'), x -> lower(x)) END AS toks FROM documents), "
            "s AS (SELECT doc_id, "
            f"  len(list_filter(toks, x -> x IN {_EN})) AS en, "
            f"  len(list_filter(toks, x -> x IN {_FR})) AS fr, "
            f"  len(list_filter(toks, x -> x IN {_DE})) AS de, "
            f"  len(list_filter(toks, x -> x IN {_ES})) AS es FROM w) "
            "SELECT doc_id, CASE "
            "WHEN en >= 1 AND en >= fr AND en >= de AND en >= es THEN 'en' "
            "WHEN fr >= 1 AND fr > en AND fr >= de AND fr >= es THEN 'fr' "
            "WHEN de >= 1 AND de > en AND de > fr AND de >= es THEN 'de' "
            "WHEN es >= 1 AND es > en AND es > fr AND es > de THEN 'es' "
            "ELSE 'und' END AS lang_pred FROM s"
        ),
        # edit-distance pairs: the oracle replays the engine's symmetric-
        # delete blocking (pigeonhole-complete for ed <= 1: shared member
        # of the <=1-deletion neighborhoods), then verifies with DuckDB's
        # exact levenshtein — blocked, never an all-pairs cross join
        "dedup_edit_pairs": (
            "WITH keys AS (SELECT doc_id, "
            "  substr(COALESCE(text, ''), 1, 24) AS key FROM documents), "
            "vars AS ("
            "  SELECT doc_id, key, key AS v FROM keys "
            "  UNION "
            "  SELECT doc_id, key, substr(key, 1, CAST(i AS INT) - 1) || "
            "    substr(key, CAST(i AS INT) + 1) AS v "
            "  FROM keys, LATERAL (SELECT unnest(generate_series(1, "
            "    length(key))) AS i) t), "
            "cand AS (SELECT DISTINCT a.doc_id AS doc_a, "
            "  b.doc_id AS doc_b, a.key AS ka, b.key AS kb "
            "  FROM vars a JOIN vars b ON a.v = b.v "
            "    AND a.doc_id < b.doc_id) "
            "SELECT doc_a, doc_b, "
            "CAST(levenshtein(ka, kb) AS BIGINT) AS dist "
            "FROM cand WHERE levenshtein(ka, kb) <= 1"
        ),
        # simhash near-pairs: banding is pigeonhole-complete, so brute-force
        # bit_count(xor) over the (already-verified) simhash SQL is exact
        # byte-banded blocking (VERDICT r4 item 4): hamming <= 6 over 64
        # bits leaves >= 2 of the 8 bytes identical (pigeonhole), so every
        # qualifying pair shares a (byte_idx, byte_value) block; the
        # hamming re-check on candidates is exact
        "dedup_simhash_pairs": (
            "WITH w AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks FROM documents), "
            "t AS (SELECT doc_id, unnest(toks) AS tok FROM w), "
            "h AS (SELECT doc_id, ('0x'||substr(md5(tok),1,16))::UBIGINT AS hv FROM t), "
            "bit AS (SELECT doc_id, i, "
            "  sum(CASE WHEN (hv >> (63-i)) & 1::UBIGINT = 1::UBIGINT THEN 1 ELSE -1 END) AS vote "
            "  FROM h, (SELECT unnest(generate_series(0, 63)) AS i) bits "
            "  GROUP BY doc_id, i), "
            "fpu AS (SELECT doc_id, sum(CASE WHEN vote > 0 "
            "  THEN (1::HUGEINT << (63-i)) ELSE 0::HUGEINT END) AS ufp "
            "  FROM bit GROUP BY doc_id), "
            "fp AS (SELECT d.doc_id, COALESCE(f.ufp, 0::HUGEINT) AS u, "
            "  CAST(COALESCE(CASE WHEN f.ufp >= (1::HUGEINT << 63) "
            "  THEN f.ufp - (1::HUGEINT << 64) ELSE f.ufp END, 0) AS BIGINT) AS sh "
            "  FROM documents d LEFT JOIN fpu f ON d.doc_id = f.doc_id), "
            "by AS (SELECT doc_id, i, "
            "  CAST((u >> CAST(8*i AS INT)) & 255::HUGEINT AS INT) AS bv "
            "  FROM fp, (SELECT unnest(generate_series(0, 7)) AS i)), "
            "cand AS (SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b "
            "  FROM by a JOIN by b ON a.i = b.i AND a.bv = b.bv "
            "  AND a.doc_id < b.doc_id) "
            "SELECT c.id_a, c.id_b, "
            "CAST(bit_count(xor(fa.sh, fb.sh)) AS BIGINT) AS hamming "
            "FROM cand c JOIN fp fa ON fa.doc_id = c.id_a "
            "JOIN fp fb ON fb.doc_id = c.id_b "
            "WHERE bit_count(xor(fa.sh, fb.sh)) <= 6"
        ),
        # exact 3-gram Jaccard ground truth via shared-shingle blocking
        # (identical values to the old brute force, quadratic only in
        # per-gram frequencies) — exact vs LSH because every true pair in
        # this corpus has j >= 0.889 (measured), where LSH recall at
        # 128 hashes / 32 bands is 1 - (1 - 0.889^4)^32 ≈ 1 - 2e-14
        "dedup_minhash_pairs": (
            "WITH " + _BLOCKED_J_CTE +
            " SELECT id_a, id_b, jaccard_sim FROM j WHERE jaccard_sim >= 0.5"
        ),
        # same blocked Jaccard ground truth, but here the Ray side is
        # the AllPairs prefix filter — exact by construction, so this
        # oracle needs NO corpus-specific recall argument
        "dedup_jaccard_pairs": (
            "WITH " + _BLOCKED_J_CTE +
            " SELECT id_a, id_b, jaccard_sim FROM j WHERE jaccard_sim >= 0.5"
        ),
        # containment: same shared-shingle blocking (complete for t>0),
        # LEAST(size) denominator; mn=0 rows exist only for the
        # empty-empty UNION branch (containment 1.0, engine convention)
        "dedup_containment_pairs": (
            "WITH " + _SH_CTE +
            "g AS (SELECT doc_id, unnest(s) AS g FROM sh), "
            "cand AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "  count(*) AS inter FROM g a JOIN g b ON a.g = b.g "
            "  AND a.doc_id < b.doc_id GROUP BY 1, 2), "
            "sz AS (SELECT doc_id, len(s) AS n FROM sh), "
            "p AS (SELECT c.id_a, c.id_b, c.inter, "
            "  LEAST(sa.n, sb.n) AS mn "
            "  FROM cand c JOIN sz sa ON sa.doc_id = c.id_a "
            "  JOIN sz sb ON sb.doc_id = c.id_b "
            "  UNION ALL SELECT a.doc_id, b.doc_id, 0, 0 "
            "  FROM sz a JOIN sz b ON a.doc_id < b.doc_id "
            "  WHERE a.n = 0 AND b.n = 0) "
            "SELECT id_a, id_b, CASE WHEN mn = 0 THEN 1.0 "
            "  ELSE CAST(inter AS DOUBLE) / mn END AS containment "
            "FROM p WHERE mn = 0 OR CAST(inter AS DOUBLE) / mn >= 0.8"
        ),
        # CCNet paragraph-dedup semantics over 10-word segments: first
        # (doc_id, seg_idx) occurrence of each distinct segment survives,
        # docs reassembled from survivors in order
        "dedup_segments": (
            "WITH w AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks FROM documents), "
            "seg0 AS (SELECT doc_id, unnest(list_transform("
            "    generate_series(0, CAST(ceil(len(toks)/10.0) AS BIGINT)-1), "
            "    i -> struct_pack(i := i, seg := array_to_string("
            "      list_slice(toks, i*10+1, LEAST((i+1)*10, len(toks))), ' ')))) AS u FROM w), "
            "seg AS (SELECT doc_id, CAST(u.i AS INT) AS seg_idx, u.seg AS seg FROM seg0), "
            "win AS (SELECT doc_id, seg_idx, seg, "
            "  row_number() OVER (PARTITION BY seg ORDER BY doc_id, seg_idx) AS rn FROM seg), "
            "agg AS (SELECT doc_id, string_agg(seg, ' ' ORDER BY seg_idx) AS text, "
            "  count(*) AS n_kept FROM win WHERE rn = 1 GROUP BY doc_id), "
            "tot AS (SELECT doc_id, CAST(ceil(len(toks)/10.0) AS BIGINT) AS n_segments FROM w) "
            "SELECT t.doc_id, COALESCE(a.text, '') AS text, t.n_segments, "
            "  COALESCE(a.n_kept, 0) AS n_kept "
            "FROM tot t LEFT JOIN agg a USING (doc_id)"
        ),
        # near-dup clusters: min-reachable label over the verified pair
        # graph (recursive CTE over the BLOCKED pair set), matching
        # driver-side union-find min labels
        "dedup_survivors": (
            "WITH RECURSIVE " + _BLOCKED_J_CTE + ", "
            "pairs AS (SELECT id_a, id_b FROM j WHERE jaccard_sim >= 0.5), "
            "edges AS (SELECT id_a AS a, id_b AS b FROM pairs "
            "  UNION SELECT id_b, id_a FROM pairs), "
            "reach(id, r) AS (SELECT doc_id, doc_id FROM documents "
            "  UNION SELECT x.id, e.b FROM reach x JOIN edges e ON e.a = x.r) "
            "SELECT id AS doc_id, CAST(min(r) AS BIGINT) AS canonical_id "
            "FROM reach GROUP BY id"
        ),
        # same components; canonical = argmax word count (tie min id)
        "dedup_survivors_quality": (
            "WITH RECURSIVE " + _BLOCKED_J_CTE + ", "
            "pairs AS (SELECT id_a, id_b FROM j WHERE jaccard_sim >= 0.5), "
            "edges AS (SELECT id_a AS a, id_b AS b FROM pairs "
            "  UNION SELECT id_b, id_a FROM pairs), "
            "reach(id, r) AS (SELECT doc_id, doc_id FROM documents "
            "  UNION SELECT x.id, e.b FROM reach x JOIN edges e ON e.a = x.r), "
            "comp AS (SELECT id AS doc_id, min(r) AS comp FROM reach GROUP BY id), "
            "q AS (SELECT doc_id, len(toks) AS n_words FROM w), "
            "best AS (SELECT comp, doc_id AS canon FROM ("
            "  SELECT c.comp, c.doc_id, row_number() OVER (PARTITION BY c.comp "
            "    ORDER BY q.n_words DESC, c.doc_id ASC) AS rn "
            "  FROM comp c JOIN q ON q.doc_id = c.doc_id) WHERE rn = 1) "
            "SELECT c.doc_id, CAST(b.canon AS BIGINT) AS canonical_id "
            "FROM comp c JOIN best b ON b.comp = c.comp"
        ),
        # simhash recomputed exactly: md5 64-bit token hashes, ±1 votes per
        # bit, bit set iff vote > 0, two's-complement int64 view
        "dedup_simhash": (
            "WITH w AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks FROM documents), "
            "t AS (SELECT doc_id, unnest(toks) AS tok FROM w), "
            "h AS (SELECT doc_id, ('0x'||substr(md5(tok),1,16))::UBIGINT AS hv FROM t), "
            "bit AS (SELECT doc_id, i, "
            "  sum(CASE WHEN (hv >> (63-i)) & 1::UBIGINT = 1::UBIGINT THEN 1 ELSE -1 END) AS vote "
            "  FROM h, (SELECT unnest(generate_series(0, 63)) AS i) bits "
            "  GROUP BY doc_id, i), "
            "fp AS (SELECT doc_id, sum(CASE WHEN vote > 0 "
            "  THEN (1::HUGEINT << (63-i)) ELSE 0::HUGEINT END) AS ufp "
            "  FROM bit GROUP BY doc_id) "
            "SELECT d.doc_id, CAST(COALESCE(CASE WHEN f.ufp >= (1::HUGEINT << 63) "
            "  THEN f.ufp - (1::HUGEINT << 64) ELSE f.ufp END, 0) AS BIGINT) AS simhash "
            "FROM documents d LEFT JOIN fp f ON d.doc_id = f.doc_id"
        ),
        # n²/2 cosine over the embeddings table — re-timed for the r4
        # quadratic-oracle sweep: 0.2 s at sf0.1 (n = 2,000, dim 64), so
        # this one never needed blocking; kept on the DOUBLE list kernel
        # that bit-matches the engine's numpy float64
        "dedup_embedding_pairs": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4"
        ),
        # identical RE2-safe BPE-ish pre-tokenizer regex run by DuckDB
        "text_token_count_bpe": (
            "SELECT doc_id, CAST(len(regexp_extract_all(text, "
            "'''(?:[sdmt]|ll|ve|re)| ?[A-Za-zÀ-ÿĀ-￿]+| ?[0-9]+"
            "| ?[^\\sA-Za-zÀ-ÿĀ-￿0-9]+|\\s+')) AS BIGINT) "
            "AS n_bpe_tokens FROM documents"
        ),
        # winnowing fingerprints recomputed exactly: md5 token hashes,
        # 5-token sliding-window minima (ROWS frame), XOR of DISTINCT minima,
        # short docs (<5 tokens) XOR all hashes (with multiplicity), 63-bit mask
        "text_fingerprints": (
            "WITH w AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks FROM documents), "
            "t AS (SELECT doc_id, unnest(toks) AS tok, "
            "  unnest(generate_series(1, len(toks))) AS pos FROM w), "
            "h AS (SELECT doc_id, pos, ('0x'||substr(md5(tok),1,16))::UBIGINT AS hv FROM t), "
            "win AS (SELECT doc_id, pos, "
            "  min(hv) OVER (PARTITION BY doc_id ORDER BY pos "
            "    ROWS BETWEEN CURRENT ROW AND 4 FOLLOWING) AS mh, "
            "  count(*) OVER (PARTITION BY doc_id) AS n, hv FROM h), "
            "longf AS (SELECT doc_id, bit_xor(mh) AS fp FROM "
            "  (SELECT DISTINCT doc_id, mh FROM win WHERE n >= 5 AND pos <= n - 4) "
            "  GROUP BY doc_id), "
            "shortf AS (SELECT doc_id, bit_xor(hv) AS fp FROM win WHERE n < 5 GROUP BY doc_id), "
            "allf AS (SELECT * FROM longf UNION ALL SELECT * FROM shortf) "
            "SELECT d.doc_id, CAST(COALESCE(f.fp & 9223372036854775807::UBIGINT, "
            "  0::UBIGINT) AS BIGINT) AS fingerprint "
            "FROM documents d LEFT JOIN allf f ON d.doc_id = f.doc_id"
        ),
        # decontamination: distinct 8-gram semi-join against the benchmark
        "text_decontaminate": (
            "WITH w AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks FROM documents), "
            "g AS (SELECT doc_id, CASE WHEN len(toks) < 8 THEN [] "
            "  ELSE list_distinct(list_transform(generate_series(1, len(toks)-7), "
            "    i -> toks[i]||' '||toks[i+1]||' '||toks[i+2]||' '||toks[i+3]||' '||"
            "toks[i+4]||' '||toks[i+5]||' '||toks[i+6]||' '||toks[i+7])) END AS grams FROM w), "
            "b AS (SELECT DISTINCT unnest(grams) AS gram FROM g WHERE doc_id % 50 = 0), "
            "x AS (SELECT doc_id, unnest(grams) AS gram FROM g), "
            "o AS (SELECT x.doc_id, count(*) AS n FROM x JOIN b ON x.gram = b.gram "
            "  GROUP BY x.doc_id) "
            "SELECT d.doc_id, CAST(COALESCE(o.n, 0) AS BIGINT) AS n_overlap, "
            "COALESCE(o.n, 0) > 0 AS contaminated "
            "FROM documents d LEFT JOIN o ON d.doc_id = o.doc_id"
        ),
        "pipeline_quality_dedup": (
            "WITH good AS (SELECT doc_id, text FROM documents "
            "  WHERE CASE WHEN trim(text) = '' THEN 0 ELSE "
            "  length(regexp_split_to_array(trim(text), '\\s+')) END >= 20), "
            "keep AS (SELECT min(doc_id) AS doc_id FROM good GROUP BY md5(text)) "
            "SELECT g.doc_id, CAST(CASE WHEN trim(g.text) = '' THEN 1 ELSE "
            "length(regexp_split_to_array(trim(g.text), '\\s+')) END AS BIGINT) "
            "AS n_tokens FROM good g JOIN keep k ON g.doc_id = k.doc_id"
        ),
        # aggregates the ORIGINAL table — matching the Ray side (which
        # aggregates the JSONL read-back) certifies lossless roundtrip
        "docs_jsonl_roundtrip": (
            "SELECT doc_id % 16 AS shard, "
            "CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(length(COALESCE(text, ''))) AS BIGINT) "
            "  AS sum_len_chars, "
            "CAST(sum(doc_id) AS BIGINT) AS sum_doc_id "
            "FROM documents GROUP BY doc_id % 16"
        ),
        # stratified split: rank within lang by (first-64-bits-of-md5,
        # doc_id) — both sides order on the SAME truncated key so hash
        # collisions past bit 64 cannot diverge the rank
        "docs_split_assign": (
            "WITH h AS (SELECT doc_id, lang, "
            "  ('0x' || substr(md5('split0' || "
            "    CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT AS hv "
            "  FROM documents), "
            "r AS (SELECT doc_id, lang, "
            "  row_number() OVER (PARTITION BY lang "
            "    ORDER BY hv, doc_id) - 1 AS r0, "
            "  count(*) OVER (PARTITION BY lang) AS n FROM h) "
            "SELECT doc_id, lang, "
            "CASE WHEN r0 * 1000 < n * 800 THEN 'train' "
            "  WHEN r0 * 1000 < n * 900 THEN 'val' "
            "  ELSE 'test' END AS split FROM r"
        ),
        # same certification shape for the CSV sink (null ≡ '' on both
        # sides — CSV's documented lossy corner)
        "docs_csv_roundtrip": (
            "SELECT doc_id % 16 AS shard, "
            "CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(length(COALESCE(text, ''))) AS BIGINT) "
            "  AS sum_len_chars, "
            "CAST(sum(doc_id) AS BIGINT) AS sum_doc_id "
            "FROM documents GROUP BY doc_id % 16"
        ),
        # degree distribution of the lattice: out-degree of rank r is
        # clamp(n-1-4r, 0, 4) per host
        "link_degree_hist": (
            "WITH ranked AS (SELECT doc_id, doc_id % 16 AS h, "
            "  row_number() OVER (PARTITION BY doc_id % 16 ORDER BY doc_id) - 1 AS rnk, "
            "  count(*) OVER (PARTITION BY doc_id % 16) AS n FROM documents) "
            "SELECT CAST(GREATEST(0, LEAST(4, n - 1 - 4*rnk)) AS BIGINT) AS out_degree, "
            "CAST(count(*) AS BIGINT) AS n_nodes FROM ranked "
            "GROUP BY 1 HAVING count(*) > 0"
        ),
        # one-pass corpus datasheet (token convention: 0 for blank text)
        "corpus_report": (
            "SELECT CAST(count(*) AS BIGINT) AS n_docs, "
            "CAST(sum(CASE WHEN trim(COALESCE(text, '')) = '' THEN 0 "
            " ELSE length(regexp_split_to_array(trim(text), '\\s+')) END) "
            " AS BIGINT) AS n_tokens, "
            "CAST(sum(length(trim(COALESCE(text, '')))) AS BIGINT) AS n_chars, "
            "CAST(sum(CASE WHEN trim(COALESCE(text, '')) = '' THEN 1 ELSE 0 END) "
            " AS BIGINT) AS n_empty, "
            "CAST(count(DISTINCT lang) AS BIGINT) AS n_langs FROM documents"
        ),
        # closed-form expected markdown of the generated .docx per row
        # (COALESCE mirrors the query side's `text or ''`, ADVICE r2)
        "convert_docx": (
            "SELECT doc_id, CASE WHEN trim(COALESCE(text, ''), ' ' || chr(9) || chr(10) || chr(13)) = '' "
            "THEN '# Document ' || CAST(doc_id AS VARCHAR) "
            "ELSE '# Document ' || CAST(doc_id AS VARCHAR) || chr(10) || chr(10) "
            "  || trim(COALESCE(text, ''), ' ' || chr(9) || chr(10) || chr(13)) END AS markdown "
            "FROM documents"
        ),
        # closed-form expected markdown of the generated two-page .pdf:
        # page 1 = page marker + 'SECTION {id}' heading (+ the text
        # paragraph), page 2 = page marker + the unordered list rendered at
        # child level (4-space indent; the renderer's strip() eats the
        # first item's indent) — metadata_json locks pages/tables/images
        "convert_pdf": (
            "SELECT doc_id, "
            "'## Page 1' || chr(10) || chr(10) || "
            "'## SECTION ' || CAST(doc_id AS VARCHAR) || "
            "CASE WHEN trim(COALESCE(text, ''), ' ' || chr(9) || chr(10) || chr(13)) = '' THEN '' "
            "ELSE chr(10) || chr(10) || trim(COALESCE(text, ''), ' ' || chr(9) || chr(10) || chr(13)) END "
            "|| chr(10) || chr(10) || '## Page 2' || chr(10) || chr(10) || "
            "'- alpha' || chr(10) || '    - beta ' || CAST(doc_id AS VARCHAR) "
            "|| chr(10) || '    - gamma' AS markdown, "
            "'{\"equations_count\": null, \"images_count\": 0, "
            "\"pages\": 2, \"tables_count\": 0}' AS metadata_json "
            "FROM documents"
        ),
        # closed-form expected markdown of the generated .xlsx per row:
        # '## Sheet: D' + the width-padded pipe table (rpad/repeat)
        "convert_xlsx": (
            "WITH v AS (SELECT doc_id, CAST(doc_id AS VARCHAR) AS c1, "
            "  CAST(length(COALESCE(text, '')) AS VARCHAR) AS c2 FROM documents), "
            "w AS (SELECT doc_id, c1, c2, "
            "  CAST(GREATEST(6, length(c1)) AS INTEGER) AS w1, CAST(GREATEST(7, length(c2)) AS INTEGER) AS w2 FROM v) "
            "SELECT doc_id, "
            "'## Sheet: D' || chr(10) || chr(10) || "
            "'| ' || rpad('doc_id', w1, ' ') || ' | ' || rpad('n_chars', w2, ' ') || ' |' || chr(10) || "
            "'|:' || repeat('-', w1) || '|:' || repeat('-', w2) || '|' || chr(10) || "
            "'| ' || rpad(c1, w1, ' ') || ' | ' || rpad(c2, w2, ' ') || ' |' "
            "AS markdown FROM w"
        ),
        # same salt arithmetic as the query, then the same three RE2
        # passes in the same order (count on the text as it stands)
        "text_pii_scrub": (
            "WITH s AS (SELECT doc_id, COALESCE(text, '') || ' contact user' "
            "  || doc_id || '@mail.example or +1 555-' "
            "  || (100 + (doc_id * 7) % 900) || '-' "
            "  || (1000 + (doc_id * 13) % 9000) "
            "  || ' from 10.' || (doc_id % 256) || '.' "
            "  || ((doc_id * 3) % 256) || '.' || (1 + doc_id % 254) AS t "
            "  FROM documents), "
            f"e AS (SELECT doc_id, length(regexp_extract_all(t, '{_PII_E}')) AS n_emails, "
            f"  regexp_replace(t, '{_PII_E}', '<EMAIL>', 'g') AS t FROM s), "
            f"p AS (SELECT doc_id, n_emails, length(regexp_extract_all(t, '{_PII_P}')) AS n_phones, "
            f"  regexp_replace(t, '{_PII_P}', '<PHONE>', 'g') AS t FROM e), "
            f"i AS (SELECT doc_id, n_emails, n_phones, length(regexp_extract_all(t, '{_PII_I}')) AS n_ips, "
            f"  regexp_replace(t, '{_PII_I}', '<IP>', 'g') AS t FROM p) "
            "SELECT doc_id, CAST(n_emails AS BIGINT) AS n_emails, "
            "CAST(n_phones AS BIGINT) AS n_phones, CAST(n_ips AS BIGINT) AS n_ips, "
            "t AS text_scrubbed FROM i"
        ),
        # 2^20-quantized int64 squared-L2 nearest centroid (ties → lowest
        # cluster index); quantization floor(x*1048576+0.5) is exact on
        # both sides because the scale is a power of two
        "cluster_assign": (
            "WITH c AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster_id, "
            "  embedding FROM embeddings WHERE vec_id < 8), "
            "cq AS (SELECT cluster_id, "
            "  unnest(list_transform(embedding, x -> CAST(floor(CAST(x AS DOUBLE) * 1048576 + 0.5) AS BIGINT))) AS cv, "
            "  unnest(range(1, len(embedding) + 1)) AS i FROM c), "
            "vq AS (SELECT vec_id, "
            "  unnest(list_transform(embedding, x -> CAST(floor(CAST(x AS DOUBLE) * 1048576 + 0.5) AS BIGINT))) AS vv, "
            "  unnest(range(1, len(embedding) + 1)) AS i FROM embeddings), "
            "d AS (SELECT vq.vec_id, cq.cluster_id, "
            "  sum((vv - cv) * (vv - cv)) AS dist "
            "  FROM vq JOIN cq ON vq.i = cq.i GROUP BY vq.vec_id, cq.cluster_id), "
            "r AS (SELECT vec_id, cluster_id, dist, row_number() OVER "
            "  (PARTITION BY vec_id ORDER BY dist, cluster_id) AS rn FROM d) "
            "SELECT vec_id, CAST(cluster_id AS BIGINT) AS cluster_id, "
            "CAST(dist AS BIGINT) AS dist_sq FROM r WHERE rn = 1"
        ),
        # two unrolled Lloyd iterations + final assignment, all int64
        "cluster_kmeans": _kmeans_oracle(),
        # 4-token windows occurring >= 2x corpus-wide; per-doc union of
        # covered positions (gram hash = md5-8-byte of chr(1)-joined window)
        "dedup_spans": (
            "WITH w AS (SELECT doc_id, CASE WHEN trim(COALESCE(text, '')) = '' THEN [] "
            "  ELSE regexp_split_to_array(trim(text), '\\s+') END AS toks FROM documents), "
            "g AS (SELECT doc_id, s, ('0x'||substr(md5("
            "  list_aggregate(toks[s : s + 3], 'string_agg', chr(1))), 1, 16))::UBIGINT AS h "
            "  FROM (SELECT doc_id, toks, unnest(range(1, len(toks) - 4 + 2)) AS s FROM w)), "
            "c AS (SELECT h, count(*) AS c FROM g GROUP BY h), "
            "d AS (SELECT g.doc_id, g.s FROM g JOIN c ON c.h = g.h WHERE c.c >= 2), "
            "cov AS (SELECT doc_id, count(DISTINCT p) AS n_dup_tokens FROM "
            "  (SELECT doc_id, unnest(range(s, s + 4)) AS p FROM d) GROUP BY doc_id), "
            "st AS (SELECT doc_id, count(*) AS n_dup_starts FROM d GROUP BY doc_id) "
            "SELECT w.doc_id, CAST(len(toks) AS BIGINT) AS n_tokens, "
            "CAST(COALESCE(st.n_dup_starts, 0) AS BIGINT) AS n_dup_starts, "
            "CAST(COALESCE(cov.n_dup_tokens, 0) AS BIGINT) AS n_dup_tokens "
            "FROM w LEFT JOIN st ON st.doc_id = w.doc_id "
            "LEFT JOIN cov ON cov.doc_id = w.doc_id"
        ),
        # same salt list, then the probed-equal normalization chain:
        # strip_accents == NFD-drop-\p{M}-NFC (utf8proc), explicit ASCII
        # whitespace class (RE2 \s vs Python \s differ), trim spaces only
        "text_normalize": (
            "WITH s AS (SELECT doc_id, COALESCE(text, '') || "
            "(['  CaFÉ  déjà' || chr(9) || 'Vu ', ' Übermäßig  ŁÓDŹ ', "
            "' 한국어 테스트 q̃ ', ' हिन्दी   MiXeD '])"
            "[1 + CAST(doc_id % 4 AS INT)] AS t FROM documents) "
            "SELECT doc_id, trim(regexp_replace(lower(strip_accents("
            "nfc_normalize(t))), '[\\t\\n\\f\\r ]+', ' ', 'g'), ' ') "
            "AS text_norm FROM s"
        ),
    }
