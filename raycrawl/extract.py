"""The extraction stage: pages → ScrapeData-shaped Arrow rows.

Ray-Data-first design: ``PageExtractor`` is the per-batch kernel and
``extract_batch`` runs it as a plain ``map_batches`` function, on Ray task
workers reused across calls, one ``PageExtractor`` per batch. A reused
worker has already imported ``ray.data`` and ``raycrawl``, so a
``scrape_dataset`` call starts no actor pool (the reference keeps its
extractor process long-lived the same way, scraper.py:283-309 / ST2 in
SURVEY.md), and the extractor holds no state, so no call sees another's.
``__call__`` handles one Arrow batch. Per-row failures degrade to the
reference's error shape (status_code=500 + error message,
scraper.py:1272-1293) and never poison the batch. The crawl's kernel,
``pipeline.WaveExtractor``, shares ``extract_page``, ``decode_html``,
``json_cell`` and ``error_row``'s values, so both modes emit the same
bytes per url.

Pipeline per row (reference extract_content, scraper.py:664-700 +
_process_page_data 1300-1355):
  parse html → metadata (full page) → structured data (full page) →
  main-content subset (only_main) → clean → markdown → links.
"""

from __future__ import annotations

import contextlib
import gc
import json
from typing import Any, Iterator, Optional

import pyarrow as pa

from .html.clean import clean_tree, find_main_content
from .html.dom import Node, parse_html
from .html.markdown import post_process_markdown, render_markdown
from .html.metadata import PageIndex, extract_metadata, extract_structured
from .links import HrefMemo, links_from_anchors
from .schema import EXTRACTED


# json.dumps(obj, sort_keys=True) builds a new encoder per call; this is
# the same encoder, built once
_json_sorted = json.JSONEncoder(sort_keys=True).encode


def json_cell(obj: Any, empty: str) -> str:
    """``_json_sorted(obj)``, with ``empty`` (its encoding) for an empty
    ``obj``: most pages carry no JSON-LD, Open Graph or Twitter card, and
    the constant costs nothing to encode."""
    return _json_sorted(obj) if obj else empty


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
    # the render's image walk also collects the cleaned page's anchors
    anchors: list[Node] = []
    markdown = post_process_markdown(render_markdown(content_root, anchors))

    return {
        "markdown": markdown,
        "html_clean": html_clean,
        "metadata": metadata,
        "structured": structured,
        "links": links,
        # crawl expansion uses links of the *cleaned* html — the reference
        # passes scrape_result["data"]["html"] (the cleaned, main-only html)
        # to extract_links (crawler_service.py:61-65)
        "crawl_links": links_from_anchors(anchors, normalized),
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
        "json_ld": json_cell(st["jsonLd"], "[]"),
        "open_graph": json_cell(st["openGraph"], "{}"),
        "twitter_card": json_cell(st["twitterCard"], "{}"),
        "meta_data": _json_sorted(st["metaData"]),
        "metadata_json": json_cell(md, "{}"),
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
    """Batch kernel: PAGES schema in → EXTRACTED schema out. It keeps no
    state between calls.

    ``include_raw_html=True`` appends the original page source as a
    ``raw_html`` column (the reference's opt-in rawHtml field,
    models/response.py:23 / scraper.py:1343)."""

    def __init__(self, only_main: bool = True,
                 include_raw_html: bool = False) -> None:
        self.only_main = only_main
        self.include_raw_html = include_raw_html

    def __call__(self, batch: pa.Table) -> pa.Table:
        htmls = batch.column("html").to_pylist()
        rows: list[dict] = []
        with _collector_paused():
            for url, html in zip(batch.column("url").to_pylist(), htmls):
                try:
                    row = page_row(extract_page(
                        url, decode_html(html), only_main=self.only_main))
                except Exception as exc:
                    row = error_row(exc)
                rows.append(row)

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


def extract_batch(batch: pa.Table, **options: Any) -> pa.Table:
    """``PageExtractor(**options)`` over one batch, as a plain
    ``map_batches`` function."""
    return PageExtractor(**options)(batch)


def scrape_dataset(
    pages_ds: "ray.data.Dataset",  # noqa: F821
    only_main: bool = True,
    concurrency: Optional[int] = None,
    batch_size: int = 64,
    include_raw_html: bool = False,
):
    """pages Dataset → extracted Dataset (the /scrape pipeline, SURVEY.md
    §3.1 Ray shape), run as Ray tasks on task workers reused across
    calls, one ``PageExtractor`` per batch; ``concurrency`` bounds the
    tasks in flight. Modest batch_size because html rows can be MBs
    (R5)."""
    kwargs: dict[str, Any] = dict(
        batch_format="pyarrow",
        batch_size=batch_size,
        fn_kwargs={"only_main": only_main,
                   "include_raw_html": include_raw_html},
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
