"""Arrow schemas for every logical table of the engine (SURVEY.md §1.4).

The input shape is the BASELINE.json input_hint; everything downstream is
columnar Arrow so blocks move zero-copy through the Ray object store. Nested
structured data (jsonLd / openGraph / twitterCard / metaData / full metadata
dict) is carried as JSON-encoded strings: stable across Arrow↔pandas↔DuckDB
boundaries and cheap to parse lazily.
"""

from __future__ import annotations

import pyarrow as pa

# BASELINE.json input_hint: Common-Crawl-style web pages.
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# ScrapeData equivalent (reference models/response.py:21-31, assembled at
# services/scraper/scraper.py:1339-1351).
EXTRACTED = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("markdown", pa.large_string()),
        ("html_clean", pa.large_string()),
        ("title", pa.string()),
        ("description", pa.string()),
        ("language", pa.string()),
        ("status_code", pa.int32()),
        ("error", pa.string()),
        ("links", pa.list_(pa.string())),
        ("json_ld", pa.string()),       # JSON-encoded list
        ("open_graph", pa.string()),    # JSON-encoded dict
        ("twitter_card", pa.string()),  # JSON-encoded dict
        ("meta_data", pa.string()),     # JSON-encoded dict (includes language)
        ("metadata_json", pa.string()),  # full _extract_metadata dict
    ]
)

# CrawledPage equivalent (reference models/crawler_response.py:14-24) plus
# frontier lineage: seq = global admission sequence, the BFS order key.
CRAWL_RESULT = pa.schema(
    [
        ("seq", pa.int64()),
        ("depth", pa.int32()),
        ("url", pa.string()),
        ("parent_url", pa.string()),
        ("wave", pa.int32()),
        ("markdown", pa.large_string()),
        ("title", pa.string()),
        ("language", pa.string()),
        ("status_code", pa.int32()),
        ("json_ld", pa.string()),
        ("open_graph", pa.string()),
        ("twitter_card", pa.string()),
        ("meta_data", pa.string()),
    ]
)

# Final URL-seen set materialization (SURVEY.md §1.4).
SEEN = pa.schema(
    [
        ("url_key", pa.binary()),  # 20-byte SHA-1 of canonical url
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("seq", pa.int64()),
        ("parent_url", pa.string()),
    ]
)

# Chunk rows (reference models/chunk_response.py:25-32).
CHUNKS = pa.schema(
    [
        ("url", pa.string()),
        ("position", pa.int32()),
        ("content", pa.large_string()),
        ("chunk_type", pa.string()),
        ("level", pa.int32()),
        ("path", pa.list_(pa.string())),
        ("heading", pa.string()),
        ("code_language", pa.string()),
        ("word_count", pa.int32()),
        ("line_count", pa.int32()),
        ("has_code", pa.bool_()),
        ("has_lists", pa.bool_()),
        ("has_links", pa.bool_()),
        ("needs_merge", pa.bool_()),
        ("needs_split", pa.bool_()),
        ("estimated_read_time", pa.int32()),
    ]
)

# Exploded link edges (M15 flat-map shape).
LINKS = pa.schema(
    [
        ("src_url", pa.string()),
        ("dst_url", pa.string()),
        ("position", pa.int32()),  # document order within the source page
    ]
)

# Column names of the two LLM-data corpus tables the ``raycrawl.ops``
# operators read: documents (doc_id, text, lang, source, ...) and
# embeddings (vec_id, embedding). An op reads these names; a table that
# uses other names is renamed before it reaches the op.
DOC_ID = "doc_id"
TEXT = "text"
LANG = "lang"
SOURCE = "source"
VEC_ID = "vec_id"
EMBEDDING = "embedding"
