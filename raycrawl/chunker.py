"""Markdown chunking (SURVEY.md C1-C3).

``semantic_chunk_markdown`` replicates the *observable* behavior of the
reference SemanticChunker
(/root/reference/services/chunker/semantic_chunker.py:25-238), including its
quirks, which are part of the conformance spec:

- the header-handling branch is truncated in the reference (a literal
  "Rest of the header handling code..." comment at line 100), so headers act
  purely as chunk boundaries: the header line itself is discarded,
  ``current_metadata``/``header_stack`` stay empty, hierarchy paths are
  always [] and level 0;
- preamble collection ends at the first line *containing* ``"# "``
  (``sep + " " in stripped_line``, line 47 — substring, not prefix);
- blank lines never flush a chunk (the flush branch at lines 105-112 is
  unreachable: ``elif current_content`` can only be evaluated when
  ``current_content`` is falsy), so chunks are delimited only by headers and
  code fences;
- code chunks bundle any text accumulated since the previous boundary;
- table detection requires the literal substring ``-|-`` (line 196), which
  spaced pipe tables never contain → they classify as "text".

``sentence_chunk`` is a minimal, deterministic replacement for the Chonkie
SentenceChunker used at chunk_service.py:95-142 (sentence split on
./!/?/newline, sentences shorter than ``min_chars_per_sentence`` merged
forward, packed into ≤``chunk_size``-word chunks with ``overlap`` words of
context) — Chonkie is unavailable offline, so this is this engine's spec.

``chunk_extracted`` is the Ray Data stage: one markdown row → N chunk rows
(flat-map shaped ``map_batches``).
"""

from __future__ import annotations

import re
from typing import Any, Optional

import pyarrow as pa

from .schema import CHUNKS

_HEADER_SEPS = ["#", "##", "###", "####", "#####", "######"]
_HAS_LISTS_RE = re.compile(r"^\s*[-*]\s", re.MULTILINE)
_WS_RE = re.compile(r"\s+")
_HEADER_FIX_RE = re.compile(r"(#{1,6})([^#\s])")
_LIST_FIX_RE = re.compile(r"(\n\s*)-([^\s])")
_HTML_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_NEWLINES_RE = re.compile(r"\n{3,}")


def clean_markdown(markdown: str) -> str:
    """Reference ChunkService._clean_markdown (chunk_service.py:27-63).

    NOTE the reference quirk: the first operation collapses ALL whitespace
    runs (including newlines) to single spaces, flattening the document to
    one line before the line-oriented fixes — replicated faithfully.
    """
    cleaned = _WS_RE.sub(" ", markdown)
    cleaned = _HEADER_FIX_RE.sub(r"\1 \2", cleaned)
    cleaned = _NEWLINES_RE.sub("\n\n", cleaned)
    cleaned = _LIST_FIX_RE.sub(r"\1- \2", cleaned)
    cleaned = _HTML_COMMENT_RE.sub("", cleaned)
    cleaned = cleaned.replace("&nbsp;", " ").replace("\xa0", " ")
    cleaned = "\n".join(line.rstrip() for line in cleaned.split("\n"))
    return cleaned


def _make_chunk(
    content: str,
    chunk_type: str = "text",
    code_language: Optional[str] = None,
    is_preamble: bool = False,
    min_chunk_size: int = 200,
    max_chunk_size: int = 1500,
) -> Optional[dict[str, Any]]:
    """Reference _create_chunk (semantic_chunker.py:133-238)."""
    if not content:
        return None
    content = "\n".join(line.rstrip() for line in content.splitlines()).strip()
    if not content:
        return None
    lines = content.splitlines()
    word_count = len(content.split())
    is_code = chunk_type == "code"
    needs_merge = needs_split = False
    if not (is_code or is_preamble):
        if word_count < min_chunk_size:
            needs_merge = True
        elif word_count > max_chunk_size:
            needs_split = True
    if chunk_type == "text":
        if content.startswith("#"):
            chunk_type = "header"
        elif content.startswith("```"):
            chunk_type = "code"
        elif content.startswith(("- ", "* ", "1. ")):
            chunk_type = "list"
        elif "|" in content and "-|-" in content:
            chunk_type = "table"
    return {
        "content": content,
        "type": chunk_type,
        "level": 0,            # truncated-header-handling quirk: always 0
        "path": [],            # and empty hierarchy path
        "heading": None,
        "code_language": code_language if is_code else None,
        "word_count": word_count,
        "line_count": len(lines),
        "has_code": "```" in content or "`" in content,
        "has_lists": bool(_HAS_LISTS_RE.search(content)),
        "has_links": "[" in content and "](" in content,
        "needs_merge": needs_merge,
        "needs_split": needs_split,
        "estimated_read_time": max(1, word_count // 200),
        "position": 0,  # assigned by the caller
    }


def semantic_chunk_markdown(
    text: str, max_chunk_size: int = 1500, min_chunk_size: int = 200
) -> list[dict[str, Any]]:
    """Reference chunk_markdown (semantic_chunker.py:25-131)."""
    chunks: list[dict[str, Any]] = []
    current: list[str] = []
    preamble: list[str] = []
    found_first_header = False
    in_code = False
    code_language: Optional[str] = None

    def push(chunk: Optional[dict[str, Any]]) -> None:
        if chunk:
            chunks.append(chunk)

    for line in text.split("\n"):
        stripped = line.strip()

        if not found_first_header and not any(
            sep + " " in stripped for sep in _HEADER_SEPS
        ):
            preamble.append(line)
            continue

        if not in_code and stripped.startswith("```"):
            in_code = True
            code_language = stripped[3:].strip()
            current.append(line)
            continue
        elif in_code:
            current.append(line)
            if stripped.startswith("```"):
                in_code = False
                if current:
                    push(_make_chunk("\n".join(current), "code", code_language,
                                     min_chunk_size=min_chunk_size,
                                     max_chunk_size=max_chunk_size))
                    current = []
            continue

        header_match = False
        for sep in _HEADER_SEPS:
            if stripped.startswith(sep + " "):
                found_first_header = True
                header_match = True
                if current:
                    push(_make_chunk("\n".join(current),
                                     min_chunk_size=min_chunk_size,
                                     max_chunk_size=max_chunk_size))
                    current = []
                elif preamble and not chunks:
                    push(_make_chunk("\n".join(preamble), is_preamble=True,
                                     min_chunk_size=min_chunk_size,
                                     max_chunk_size=max_chunk_size))
                    preamble = []
                # reference line 100: header handling truncated — the header
                # line itself is dropped and no hierarchy metadata is built

        if not header_match and not in_code:
            if line.strip() or current:
                current.append(line)
            # (reference lines 105-112: the blank-line flush branch is
            # unreachable; blank lines never flush)

    if current:
        push(_make_chunk("\n".join(current),
                         min_chunk_size=min_chunk_size,
                         max_chunk_size=max_chunk_size))
    # never-found-a-header documents: the reference leaves the preamble
    # unflushed (all content collected into preamble, zero chunks returned)
    for i, chunk in enumerate(chunks):
        chunk["position"] = i
    return chunks


def sentence_chunk(
    text: str,
    chunk_size: int = 512,
    chunk_overlap: int = 50,
    min_chars_per_sentence: int = 12,
) -> list[dict[str, Any]]:
    """Minimal deterministic sentence chunker (Chonkie-replacement spec)."""
    raw = re.split(r"(?<=[.!?])\s+|\n+", text)
    sentences: list[str] = []
    for s in raw:
        s = s.strip()
        if not s:
            continue
        if sentences and len(s) < min_chars_per_sentence:
            sentences[-1] = sentences[-1] + " " + s
        else:
            sentences.append(s)
    chunks: list[dict[str, Any]] = []
    cur: list[str] = []
    cur_words = 0
    for s in sentences:
        w = len(s.split())
        if cur and cur_words + w > chunk_size:
            content = " ".join(cur)
            chunks.append({"content": content, "type": "text",
                           "word_count": len(content.split())})
            # overlap: keep trailing sentences up to chunk_overlap words
            keep: list[str] = []
            kw = 0
            for t in reversed(cur):
                tw = len(t.split())
                if kw + tw > chunk_overlap:
                    break
                keep.insert(0, t)
                kw += tw
            cur = keep
            cur_words = kw
        cur.append(s)
        cur_words += w
    if cur:
        content = " ".join(cur)
        chunks.append({"content": content, "type": "text",
                       "word_count": len(content.split())})
    for i, c in enumerate(chunks):
        c["position"] = i
    return chunks


class ChunkStage:
    """Flat-map batch stage: extracted rows → chunk rows (CHUNKS schema).

    chunker='semantic' applies semantic_chunk_markdown (the /chunk pipeline,
    chunk_service.py:65-216); 'sentence' applies the sentence chunker.
    ``clean=True`` additionally applies the faithful ``clean_markdown``
    (M17) first — NOTE that its whitespace collapse flattens the document to
    one line, which makes the reference /chunk endpoint emit ≤1 chunk per
    document (and 0 when the markdown starts with a header); this engine
    defaults to clean=False so chunking operates on structured markdown,
    with the faithful mode available for parity checks. Deployed as
    ``ds.map_batches(ChunkStage, batch_format="pyarrow", concurrency=N)``.
    """

    def __init__(self, chunker: str = "semantic", max_chunk_size: int = 1500,
                 min_chunk_size: int = 200, chunk_overlap: int = 50,
                 clean: bool = False) -> None:
        self.chunker = chunker
        self.max_chunk_size = max_chunk_size
        self.min_chunk_size = min_chunk_size
        self.chunk_overlap = chunk_overlap
        self.clean = clean

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        mds = batch.column("markdown").to_pylist()
        cols: dict[str, list] = {n: [] for n in CHUNKS.names}
        for url, md in zip(urls, mds):
            md = md or ""
            if self.clean:
                md = clean_markdown(md)
            if self.chunker == "sentence":
                items = sentence_chunk(md, chunk_size=self.max_chunk_size,
                                       chunk_overlap=self.chunk_overlap)
            else:
                items = semantic_chunk_markdown(
                    md, max_chunk_size=self.max_chunk_size,
                    min_chunk_size=self.min_chunk_size)
            for ch in items:
                cols["url"].append(url)
                cols["position"].append(ch["position"])
                cols["content"].append(ch["content"])
                cols["chunk_type"].append(ch["type"])
                cols["level"].append(ch.get("level", 0))
                cols["path"].append(ch.get("path", []))
                cols["heading"].append(ch.get("heading"))
                cols["code_language"].append(ch.get("code_language"))
                cols["word_count"].append(ch["word_count"])
                cols["line_count"].append(ch.get("line_count",
                                                 len(ch["content"].splitlines())))
                cols["has_code"].append(ch.get("has_code", False))
                cols["has_lists"].append(ch.get("has_lists", False))
                cols["has_links"].append(ch.get("has_links", False))
                cols["needs_merge"].append(ch.get("needs_merge", False))
                cols["needs_split"].append(ch.get("needs_split", False))
                cols["estimated_read_time"].append(
                    ch.get("estimated_read_time",
                           max(1, ch["word_count"] // 200)))
        arrays = [pa.array(cols[n], type=CHUNKS.field(n).type) for n in CHUNKS.names]
        return pa.Table.from_arrays(arrays, schema=CHUNKS)

