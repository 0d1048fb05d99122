"""File conversion subsystem (SURVEY.md S7, M20-M27).

Reimplements the reference's converter core over Ray Data:

- ``DocumentElement`` / ``DocumentStructure`` IR with heading-hierarchy
  maintenance and markdown rendering
  (/root/reference/services/converters/document_structure.py:5-186);
- the pure formatters: ``clean_text`` (base_converter.py:35-53),
  ``format_table`` (base_converter.py:55-93 variant — padded pipe cells,
  ``:---:`` separators), ``format_list`` (base_converter.py:95-108);
- a converter registry keyed by file type, the reference's one real plugin
  API (converter_factory.py:6-41);
- ``ConvertStage``: ``read_binary_files → map_batches(ConvertStage)`` —
  binary file rows in, (path, markdown, metadata_json, n_elements) out.

PDF/DOCX/XLSX parsers (reference M23-M25) are implemented NATIVELY on
stdlib (zipfile + ElementTree for OOXML in ``convert_office.py``; zlib
FlateDecode + a content-stream operator scan for PDF in
``convert_pdf.py``) — PyPDF2/python-docx/openpyxl are absent here, so
those modules replicate the reference converters' observable behavior
directly, quirks included (see their docstrings).
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Union

import pyarrow as pa


class ElementType(str, Enum):
    HEADING = "heading"
    PARAGRAPH = "paragraph"
    LIST = "list"
    TABLE = "table"
    IMAGE = "image"
    CODE = "code"
    MATH = "math"
    METADATA = "metadata"
    FOOTNOTE = "footnote"
    CITATION = "citation"
    SEPARATOR = "separator"


@dataclass
class DocumentElement:
    type: ElementType
    content: Union[str, list, dict]
    metadata: dict[str, Any] = field(default_factory=dict)
    level: Optional[int] = None
    children: list["DocumentElement"] = field(default_factory=list)

    @property
    def is_container(self) -> bool:
        return self.type in {ElementType.HEADING}


class DocumentStructure:
    """Document tree with heading-stack hierarchy
    (document_structure.py:32-65) and markdown rendering (67-132)."""

    def __init__(self) -> None:
        self.elements: list[DocumentElement] = []
        self._current: Optional[DocumentElement] = None
        self._stack: list[DocumentElement] = []

    def add_element(self, el: DocumentElement) -> None:
        if el.type == ElementType.HEADING:
            while (self._stack and self._stack[-1].level is not None
                   and self._stack[-1].level >= (el.level or 0)):
                self._stack.pop()
            if self._stack:
                self._stack[-1].children.append(el)
            else:
                self.elements.append(el)
            self._stack.append(el)
            self._current = el
        elif self._current is not None and self._current.is_container:
            self._current.children.append(el)
        else:
            self.elements.append(el)

    def to_markdown(self) -> str:
        return self._process(self.elements, 0)

    def _process(self, elements: list[DocumentElement], level: int) -> str:
        parts = []
        for el in elements:
            content = self._render(el, level)
            if content:
                parts.append(content)
            if el.children:
                child = self._process(el.children, level + 1)
                if child:
                    parts.append(child)
        return "\n\n".join(p.strip() for p in parts if p.strip())

    def _render(self, el: DocumentElement, level: int) -> str:
        if el.type == ElementType.HEADING:
            return f"{'#' * (el.level or 1)} {el.content}"
        if el.type == ElementType.PARAGRAPH:
            return str(el.content)
        if el.type == ElementType.LIST:
            items = el.content if isinstance(el.content, list) else [el.content]
            ordered = el.metadata.get("ordered", False)
            indent = "    " * level
            if ordered:
                return "\n".join(f"{indent}{i}. {item}"
                                 for i, item in enumerate(items, 1))
            return "\n".join(f"{indent}- {item}" for item in items)
        if el.type == ElementType.TABLE and isinstance(el.content, list):
            headers = el.metadata.get("has_headers", True)
            align = el.metadata.get("align")
            return format_table_aligned(el.content, headers, align)
        if el.type == ElementType.IMAGE:
            alt = el.metadata.get("alt", "Image")
            return f"![{alt}]({el.content})"
        if el.type == ElementType.CODE:
            lang = el.metadata.get("language", "")
            return f"```{lang}\n{el.content}\n```"
        if el.type == ElementType.MATH:
            if el.metadata.get("inline", False):
                return f"${el.content}$"
            return f"$$\n{el.content}\n$$"
        if el.type == ElementType.SEPARATOR:
            return "---"
        return ""


# ---------------------------------------------------------------------------
# pure formatters (M20-M22)
# ---------------------------------------------------------------------------

def clean_text(text: str) -> str:
    """base_converter.py:35-53: strip control chars (keep \\n and \\t),
    collapse non-newline whitespace, ≤2 consecutive newlines, strip lines."""
    if not text:
        return ""
    text = "".join(
        ch if ch in "\n\t" or not unicodedata.category(ch).startswith("C")
        else " "
        for ch in text
    )
    text = re.sub(r"[^\S\n]+", " ", text)
    text = re.sub(r"\n{3,}", "\n\n", text)
    text = "\n".join(line.strip() for line in text.split("\n"))
    return text.strip()


def format_table(rows: list[list[str]], headers: bool = True) -> str:
    """base_converter.py:55-93: width-padded pipe table, ``:---:`` seps."""
    if not rows or not rows[0]:
        return ""
    cleaned = []
    widths = [0] * len(rows[0])
    for row in rows:
        crow = []
        for i, cell in enumerate(row):
            s = str(cell).replace("|", "\\|").strip()
            crow.append(s)
            if i < len(widths):
                widths[i] = max(widths[i], len(s))
        cleaned.append(crow)
    lines = ["| " + " | ".join(f"{c:{w}}" for c, w in zip(cleaned[0], widths)) + " |",
             "|" + "|".join(f":{'-' * w}:" for w in widths) + "|"]
    for row in cleaned[1 if headers else 0:]:
        lines.append("| " + " | ".join(f"{c:{w}}" for c, w in zip(row, widths)) + " |")
    return "\n".join(lines)


def format_table_aligned(rows: list[list], headers: bool = True,
                         align: Optional[list[str]] = None) -> str:
    """document_structure.py:134-186 variant with per-column alignment."""
    if not rows or not rows[0]:
        return ""
    widths = [0] * len(rows[0])
    for row in rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(str(cell)))
    if not align:
        align = ["left"] * len(widths)

    def fmt_row(row):
        cells = [f" {str(c).replace('|', chr(92) + '|'):<{w}} "
                 for c, w in zip(row, widths)]
        return f"|{'|'.join(cells)}|"

    lines = [fmt_row(rows[0])]
    seps = []
    for w, a in zip(widths, align):
        if a == "center":
            seps.append(f":{'-' * w}:")
        elif a == "right":
            seps.append(f"{'-' * w}:")
        else:
            seps.append(f":{'-' * w}")
    lines.append(f"|{'|'.join(seps)}|")
    for row in rows[1 if headers else 0:]:
        lines.append(fmt_row(row))
    return "\n".join(lines)


def format_list(items: list[str], ordered: bool = False, level: int = 0) -> str:
    """base_converter.py:95-108."""
    if not items:
        return ""
    indent = "    " * level
    return "\n".join(
        f"{indent}{f'{i}.' if ordered else '-'} {item.strip()}"
        for i, item in enumerate(items, 1)
    )


# ---------------------------------------------------------------------------
# converters + registry (S7 / §2.11 plugin API)
# ---------------------------------------------------------------------------

class ConversionError(Exception):
    pass


def convert_text(content: bytes) -> tuple[str, dict]:
    text = clean_text(content.decode("utf-8", errors="replace"))
    doc = DocumentStructure()
    for para in re.split(r"\n\s*\n", text):
        if para.strip():
            doc.add_element(DocumentElement(ElementType.PARAGRAPH, para.strip()))
    return doc.to_markdown(), {"paragraphs": len(doc.elements)}


def convert_markdown(content: bytes) -> tuple[str, dict]:
    # markdown passes through the text cleaner only
    text = content.decode("utf-8", errors="replace")
    return clean_text(text), {}


_REGISTRY: dict[str, Callable[[bytes], tuple[str, dict]]] = {}


def register_converter(file_type: str,
                       fn: Callable[[bytes], tuple[str, dict]]) -> None:
    """The plugin API (converter_factory.py:6-41 equivalent)."""
    _REGISTRY[file_type.lower()] = fn


def get_converter(file_type: str) -> Callable[[bytes], tuple[str, dict]]:
    try:
        return _REGISTRY[file_type.lower()]
    except KeyError:
        raise ConversionError(f"unsupported file type: {file_type}")


def _convert_pdf(content: bytes) -> tuple[str, dict]:
    from .convert_pdf import convert_pdf

    return convert_pdf(content)


def _convert_docx(content: bytes) -> tuple[str, dict]:
    from .convert_office import convert_docx

    return convert_docx(content)


def _convert_xlsx(content: bytes) -> tuple[str, dict]:
    from .convert_office import convert_xlsx

    return convert_xlsx(content)


register_converter("txt", convert_text)
register_converter("md", convert_markdown)
register_converter("pdf", _convert_pdf)    # native zlib+operator scan (convert_pdf.py)
register_converter("docx", _convert_docx)  # native zip+XML (convert_office.py)
register_converter("xlsx", _convert_xlsx)  # native zip+XML (convert_office.py)


CONVERTED = pa.schema([
    ("path", pa.string()),
    ("file_type", pa.string()),
    ("markdown", pa.large_string()),
    ("metadata_json", pa.string()),
    ("status", pa.string()),
    ("error", pa.string()),
])


class ConvertStage:
    """Actor-pool stage over ``ray.data.read_binary_files(...,
    include_paths=True)`` rows: dispatch on extension via the registry;
    per-file failures become error rows (mirrors the endpoint's size/type
    gate + error shape, api/v1/endpoints/converter.py:36-89)."""

    def __init__(self, max_bytes: int = 50 * 1024 * 1024) -> None:
        self.max_bytes = max_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        paths = batch.column("path").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        cols = {n: [] for n in CONVERTED.names}
        for path, blob in zip(paths, blobs):
            ext = path.rsplit(".", 1)[-1].lower() if "." in path else ""
            cols["path"].append(path)
            cols["file_type"].append(ext)
            try:
                if blob is None or len(blob) == 0:
                    raise ConversionError("empty file")
                if len(blob) > self.max_bytes:
                    raise ConversionError(f"file exceeds {self.max_bytes} bytes")
                md, meta = get_converter(ext)(blob)
                cols["markdown"].append(md)
                cols["metadata_json"].append(json.dumps(meta, sort_keys=True))
                cols["status"].append("ok")
                cols["error"].append(None)
            except (ConversionError, NotImplementedError, Exception) as exc:
                cols["markdown"].append("")
                cols["metadata_json"].append("{}")
                cols["status"].append("error")
                cols["error"].append(f"{type(exc).__name__}: {exc}")
        return pa.Table.from_arrays(
            [pa.array(cols[n], type=CONVERTED.field(n).type)
             for n in CONVERTED.names], schema=CONVERTED)


# ---------------------------------------------------------------------------
# file utilities (M26/M27 — file_utils.py:38-163)
# ---------------------------------------------------------------------------

_VALID_FILENAME_CHARS = frozenset(
    "-_.() abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")


def normalize_filename(filename: str) -> str:
    """file_utils.py:119-134: keep whitelisted chars, non-empty, ≤255."""
    import os as _os

    filename = "".join(c for c in filename if c in _VALID_FILENAME_CHARS)
    filename = filename.strip() or "unnamed_file"
    max_length = 255
    name, ext = _os.path.splitext(filename)
    if len(filename) > max_length:
        return name[: max_length - len(ext)] + ext
    return filename


def safe_extension(filename: str, content: Optional[bytes] = None) -> str:
    """file_utils.py:137-143 minus libmagic (absent): extension from the
    name, else sniffed from magic bytes of the content."""
    import os as _os

    ext = _os.path.splitext(filename)[1].lower().lstrip(".")
    if ext:
        return ext
    if content:
        for magic_bytes, sniffed in ((b"%PDF", "pdf"), (b"PK\x03\x04", "zip"),
                                     (b"\x89PNG", "png"), (b"\xff\xd8\xff", "jpg"),
                                     (b"GIF8", "gif")):
            if content.startswith(magic_bytes):
                return sniffed
    return ""


def detect_encoding(content: bytes) -> str:
    """file_utils.py:153-163 minus chardet (absent): BOM + UTF-8-validity
    heuristic with the same utf-8 fallback."""
    for bom, enc in ((b"\xef\xbb\xbf", "utf-8-sig"), (b"\xff\xfe", "utf-16-le"),
                     (b"\xfe\xff", "utf-16-be")):
        if content.startswith(bom):
            return enc
    try:
        content.decode("utf-8")
        return "utf-8"
    except UnicodeDecodeError:
        return "latin-1"
