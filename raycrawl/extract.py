"""The extraction stage: pages → ScrapeData-shaped Arrow rows.

Ray-Data-first design: ``PageExtractor`` is the per-batch kernel and
``extract_batch`` runs it as a plain ``map_batches`` function, on Ray task
workers reused across calls, one ``PageExtractor`` per worker per call. A
reused worker has already imported ``ray.data`` and ``raycrawl``, so a
``scrape_dataset`` call starts no actor pool (reference keeps its extractor
long-lived the same way, scraper.py:283-309 / ST2 in SURVEY.md);
``__call__`` handles one Arrow batch. Per-row failures degrade to the
reference's error shape (status_code=500 + error message,
scraper.py:1272-1293) and never poison the batch. The per-row code
(``decode_html``, ``page_row``, ``error_row``, ``rows_table``) is shared
with the crawl's kernel, ``pipeline.WaveExtractor``, so both modes emit
the same bytes per url.

Pipeline per row (reference extract_content, scraper.py:664-700 +
_process_page_data 1300-1355):
  parse html → metadata (full page) → structured data (full page) →
  main-content subset (only_main) → clean → markdown → links.
"""

from __future__ import annotations

import contextlib
import gc
import json
import uuid
from typing import Any, Iterator, Optional

import pyarrow as pa

from .html.clean import clean_tree, find_main_content
from .html.dom import Node, parse_html
from .html.markdown import post_process_markdown, to_markdown_tree
from .html.metadata import PageIndex, extract_metadata, extract_structured
from .links import HrefMemo, links_from_anchors
from .schema import EXTRACTED


# json.dumps(obj, sort_keys=True) builds a new encoder per call; this is
# the same encoder, built once
_json_sorted = json.JSONEncoder(sort_keys=True).encode


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause Python's cyclic collector for a batch kernel's page loop and
    restore its previous state. A page's tree has no reference cycle
    (``Node`` holds no parent link), so the pages are freed by refcount and
    there is nothing for the collector to find; without the pause the
    nodes each page allocates trigger gen-0/1/2 collections that only
    rescan live objects. ``tests/test_kernel_parity.py`` pins that the
    kernels leave no cyclic garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def extract_page(url: str, html: str, only_main: bool = True) -> dict[str, Any]:
    """Pure single-page extraction — shared by the Ray stage, the crawl
    pipeline and the single-threaded conformance oracle."""
    root = parse_html(html)
    idx = PageIndex(root)  # one traversal serves all metadata probes
    metadata = extract_metadata(idx)
    structured = extract_structured(idx)
    # one normalization per distinct href serves both link lists
    normalized = HrefMemo(url)
    links = links_from_anchors(idx.anchors, normalized)

    # the main subtree is cleaned and rendered in place: nothing reads
    # ``root`` after this point, so the output equals the reference's
    # str(content) round-trip (scraper.py:678-685)
    content_root: Node = root
    if only_main:
        main = find_main_content(root)
        if main is not None:
            content_root = main
    clean_tree(content_root)
    html_clean = content_root.to_html()
    markdown = post_process_markdown(to_markdown_tree(content_root))

    return {
        "markdown": markdown,
        "html_clean": html_clean,
        "metadata": metadata,
        "structured": structured,
        "links": links,
        # crawl expansion uses links of the *cleaned* html — the reference
        # passes scrape_result["data"]["html"] (the cleaned, main-only html)
        # to extract_links (crawler_service.py:61-65)
        "crawl_links": links_from_anchors(
            content_root.find_all("a", href=True), normalized),
    }


def decode_html(html) -> str:
    """A PAGES ``html`` cell (bytes, str or null) as text."""
    if isinstance(html, (bytes, bytearray)):
        return html.decode("utf-8", errors="replace")
    return html or ""


def page_row(res: dict[str, Any]) -> dict[str, Any]:
    """One ``extract_page`` result as a whole status-200 row over the
    EXTRACTED columns after ``url``/``warc_ts``."""
    md, st = res["metadata"], res["structured"]
    return {
        "markdown": res["markdown"],
        "html_clean": res["html_clean"],
        "title": md.get("title", ""),
        "description": md.get("description", ""),
        "language": st["metaData"].get("language", ""),
        "status_code": 200,
        "error": None,
        "links": res["links"],
        "json_ld": _json_sorted(st["jsonLd"]),
        "open_graph": _json_sorted(st["openGraph"]),
        "twitter_card": _json_sorted(st["twitterCard"]),
        "meta_data": _json_sorted(st["metaData"]),
        "metadata_json": _json_sorted(md),
    }


def error_row(exc: Exception, **extra: Any) -> dict[str, Any]:
    """The reference's error row (scraper.py:1272-1293) for a page whose
    extraction raised; ``extra`` fills a kernel's own columns."""
    return {
        "markdown": "", "html_clean": "", "title": "", "description": "",
        "language": "", "status_code": 500, "error": str(exc), "links": [],
        "json_ld": "[]", "open_graph": "{}", "twitter_card": "{}",
        "meta_data": '{"language": ""}', "metadata_json": "{}", **extra,
    }


def rows_table(rows: list[dict[str, Any]], schema: pa.Schema,
               **columns: Any) -> pa.Table:
    """Whole rows → a table of ``schema``. ``columns`` supplies ready-made
    columns (a batch's own url array) that the rows leave out."""
    return pa.Table.from_arrays(
        [columns[f.name] if f.name in columns
         else pa.array([r[f.name] for r in rows], f.type) for f in schema],
        schema=schema)


class PageExtractor:
    """Batch kernel: PAGES schema in → EXTRACTED schema out.

    ``include_raw_html=True`` appends the original page source as a
    ``raw_html`` column (the reference's opt-in rawHtml field,
    models/response.py:23 / scraper.py:1343).

    ``cache_size > 0`` enables an in-process LRU keyed
    SHA-256(url | options) — the worker-held analogue of the reference's
    shared TTL result cache (cache_service.py:37-99): a second pass over
    the same corpus slice (or a repeated-URL workload) skips extraction
    entirely. It lives as long as this instance: under ``scrape_dataset``
    that is one task worker for one call (see ``extract_batch``), so the
    hit rate scales with how often the same url lands on the same worker
    within a call. Keyed by url+options like the reference, which is
    sound because a call's input is one snapshot (url → html is
    functional within a run — a DIFFERENT snapshot is a new call and
    gets fresh instances, exactly as the reference's TTL bounds
    staleness). ``cache_hits``/``cache_misses`` counters surface the
    dedup-hit-rate metric.

    ``shared_cache`` (a ``raycrawl.cache.SharedExtractCache`` actor
    handle) adds the CROSS-WORKER level — the reference's Redis role
    (cache_service.py:37-99): local-LRU misses are looked up in ONE
    ``get_batch`` RPC per batch, fresh results pushed back with one
    fire-and-forget ``put_batch``; ``shared_cache_hits`` counts them.
    The two levels compose as L1 (in-process, RPC-free) / L2 (shared,
    cross-worker and cross-call); either works alone. Cache entries are
    whole rows."""

    def __init__(self, only_main: bool = True,
                 include_raw_html: bool = False,
                 cache_size: int = 0,
                 shared_cache=None) -> None:
        from collections import OrderedDict

        self.only_main = only_main
        self.include_raw_html = include_raw_html
        self.cache_size = cache_size
        self.shared_cache = shared_cache
        self._cache: "OrderedDict[bytes, dict]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.shared_cache_hits = 0

    def _cache_key(self, url: str) -> bytes:
        import hashlib

        return hashlib.sha256(
            f"{url}|main={self.only_main}".encode()).digest()

    def _local_store(self, key: bytes, entry: dict) -> None:
        self._cache[key] = entry
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)  # evict LRU

    def _cached_row(self, key: bytes, shared_hits: dict) -> Optional[dict]:
        """``key``'s row from L1, else from this batch's L2 hits (promoted
        into L1); None on a miss."""
        row = self._cache.get(key)
        if row is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            return row
        row = shared_hits.get(key)
        if row is not None:
            self.shared_cache_hits += 1
            if self.cache_size > 0:
                self._local_store(key, row)
            return row
        self.cache_misses += 1
        return None

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        caching = self.cache_size > 0 or self.shared_cache is not None
        keys = ([self._cache_key(u) for u in urls] if caching
                else [None] * len(urls))
        shared_hits: dict[bytes, dict] = {}
        if self.shared_cache is not None:
            # ONE lookup RPC per batch, only for keys the local L1 misses
            import ray as _ray

            miss_keys = sorted({k for k in keys if k not in self._cache})
            if miss_keys:
                found = _ray.get(
                    self.shared_cache.get_batch.remote(miss_keys))
                shared_hits = {k: v for k, v in zip(miss_keys, found)
                               if v is not None}
        new_keys: list[bytes] = []
        new_vals: list[dict] = []

        rows: list[dict] = []
        with _collector_paused():
            for url, html, key in zip(urls, htmls, keys):
                row = self._cached_row(key, shared_hits) if caching else None
                if row is None:
                    try:
                        row = page_row(extract_page(
                            url, decode_html(html), only_main=self.only_main))
                    except Exception as exc:
                        row = error_row(exc)
                    if self.cache_size > 0:
                        self._local_store(key, row)
                    if self.shared_cache is not None:
                        new_keys.append(key)
                        new_vals.append(row)
                rows.append(row)

        if new_keys:
            # fire-and-forget publish; the cache is advisory (a lost put
            # only costs a future miss, never correctness)
            self.shared_cache.put_batch.remote(new_keys, new_vals)

        ts = (batch.column("warc_ts") if "warc_ts" in batch.column_names
              else pa.nulls(len(batch), pa.timestamp("us")))
        out = rows_table(rows, EXTRACTED,
                         url=batch.column("url").cast(pa.string()),
                         warc_ts=ts)
        if self.include_raw_html:
            out = out.append_column(
                "raw_html",
                pa.array([decode_html(h) for h in htmls], pa.large_string()))
        return out


# the extractor of this worker process: (call token, PageExtractor)
_WORKER_EXTRACTOR: Optional[tuple[str, PageExtractor]] = None


def extract_batch(batch: pa.Table, token: Optional[str] = None,
                  **options: Any) -> pa.Table:
    """``PageExtractor(**options)`` over one batch, as a plain
    ``map_batches`` function. The extractor is kept per worker process
    and per ``token``: a worker holds only the latest token's, so its L1
    cache never outlives one ``scrape_dataset`` call, which passes a
    fresh token. With no token the extractor lasts one batch."""
    global _WORKER_EXTRACTOR
    if token is None:
        return PageExtractor(**options)(batch)
    if _WORKER_EXTRACTOR is None or _WORKER_EXTRACTOR[0] != token:
        _WORKER_EXTRACTOR = (token, PageExtractor(**options))
    return _WORKER_EXTRACTOR[1](batch)


def scrape_dataset(
    pages_ds: "ray.data.Dataset",  # noqa: F821
    only_main: bool = True,
    concurrency: Optional[int] = None,
    batch_size: int = 64,
    include_raw_html: bool = False,
    cache_size: int = 0,
    shared_cache=None,
):
    """pages Dataset → extracted Dataset (the /scrape pipeline, SURVEY.md
    §3.1 Ray shape), run as Ray tasks on task workers reused across
    calls, one ``PageExtractor`` per worker per call; ``concurrency``
    bounds the tasks in flight. Modest batch_size because html rows can
    be MBs (R5). ``cache_size`` enables each worker's repeated-URL LRU
    for this call (see PageExtractor) — useful when a slice repeats
    within one call. ``shared_cache`` (a raycrawl.cache.SharedExtractCache
    handle) adds the cross-worker shared level — the reference's Redis
    role — which also serves later calls."""
    kwargs: dict[str, Any] = dict(
        batch_format="pyarrow",
        batch_size=batch_size,
        fn_kwargs={"token": uuid.uuid4().hex,
                   "only_main": only_main,
                   "include_raw_html": include_raw_html,
                   "cache_size": cache_size,
                   "shared_cache": shared_cache},
    )
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    return pages_ds.map_batches(extract_batch, **kwargs)


def scrape_to_parquet(
    corpus_path: str,
    out_dir: str,
    only_main: bool = True,
    concurrency: int = 8,
    batch_size: int = 32,
    resume: bool = True,
) -> dict:
    """Resumable bulk extraction: one output directory per input host
    bucket, each built by ``staging.atomic_build_dir`` (staged dir,
    ``_DONE`` marker, rename) — a rerun skips finished buckets (the
    batch-pipeline equivalent of the reference's result cache, SURVEY.md
    S9); ``resume=False`` rebuilds every bucket.

    Returns {"buckets_done": n, "buckets_skipped": m, "rows": total}.
    """
    import glob as _glob
    import os as _os
    import shutil as _shutil

    import pyarrow.parquet as pq
    import ray.data as _rd

    from .pipeline import _corpus_files
    from .staging import atomic_build_dir, is_complete

    files_by_bucket, _ = _corpus_files(corpus_path)
    done = skipped = rows = 0
    for bucket, files in sorted(files_by_bucket.items(),
                                key=lambda kv: (kv[0] is None, kv[0])):
        if not files:
            continue
        name = f"bucket={bucket if bucket is not None else 'all'}"
        final = _os.path.join(out_dir, name)
        if not resume:
            _shutil.rmtree(final, ignore_errors=True)
        if is_complete(final):
            skipped += 1
        else:
            ds = _rd.read_parquet(files, columns=["url", "warc_ts", "html"])
            extracted = scrape_dataset(ds, only_main=only_main,
                                       concurrency=concurrency,
                                       batch_size=batch_size)
            atomic_build_dir(final, extracted.write_parquet)
            done += 1
        rows += sum(pq.read_metadata(f).num_rows
                    for f in _glob.glob(_os.path.join(final, "*.parquet")))
    return {"buckets_done": done, "buckets_skipped": skipped, "rows": rows}
