"""Common-Crawl-style WARC container support: sink + Ray Data source.

WARC 1.0 (ISO 28500) framing: each record is a block of CRLF-terminated
header lines starting with ``WARC/1.0``, a blank line, ``Content-Length``
bytes of payload, and a trailing ``CRLF CRLF``. Common Crawl ships
``.warc.gz`` with **one gzip member per record** so a reader can split an
archive at member boundaries without parsing the records in between; this
module replicates that framing exactly (write: one deflate stream per
record; read: ``zlib.decompressobj(wbits=31)`` member loop driven by
``unused_data``).

Record layout matches what Common Crawl / ``wget --warc-file`` emit for an
HTTP fetch: a leading ``warcinfo`` record, then per page one
``WARC-Type: response`` record whose payload is an ``HTTP/1.1 200 OK``
message carrying the page HTML, with ``WARC-Target-URI``, ``WARC-Date``
(ISO-8601 Zulu) and a ``WARC-Payload-Digest: sha1:<base32>`` the reader
verifies. All record ids are derived from (url, timestamp) so archives are
byte-deterministic — no uuids, no wall clock.

Scale notes: the sink writes one ``.warc.gz`` per host bucket of the
corpus (same partitioning the fetch join prunes on), one Ray task per
bucket — resumable per-file via ``_DONE``. The source is
``ray.data.read_binary_files`` over the archive files followed by a
``map_batches`` parser; each file expands to its pages inside the worker,
so a 256-node cluster reading a Common-Crawl segment list parallelizes
per archive file exactly like the real crawl corpus. Gzip decompression
is the dominant cost and is C-speed stdlib.

Reference: the live fetch side of eGet (services/scraper) is out of scope
per SURVEY §2.1; this is the corpus-backed equivalent for its input side.
"""

from __future__ import annotations

import base64
import glob
import hashlib
import os
import zlib
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

from .schema import PAGES

_CRLF = b"\r\n"
_WARC_VERSION = b"WARC/1.0"
_SOFTWARE = "raycrawl-warc/1.0"


def _iso_zulu(ts_us: int) -> str:
    """Microsecond epoch → WARC-Date (second resolution, like CC)."""
    import datetime as _dt

    dt = _dt.datetime(1970, 1, 1) + _dt.timedelta(microseconds=int(ts_us))
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_iso_zulu(s: str) -> int:
    """WARC-Date → microsecond epoch."""
    import datetime as _dt

    dt = _dt.datetime.strptime(s.strip(), "%Y-%m-%dT%H:%M:%SZ")
    return int((dt - _dt.datetime(1970, 1, 1)).total_seconds()) * 1_000_000


def _payload_digest(body: bytes) -> str:
    """Common Crawl's payload digest: sha1, RFC 4648 base32."""
    return "sha1:" + base64.b32encode(hashlib.sha1(body).digest()).decode()


def _record_id(seed: str) -> str:
    """Deterministic urn:uuid shaped from a sha1 — reproducible archives."""
    h = hashlib.sha1(seed.encode()).hexdigest()
    return (f"<urn:uuid:{h[0:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-"
            f"{h[20:32]}>")


def _gzip_member(raw: bytes) -> bytes:
    """One complete gzip member (fixed mtime=0 → deterministic bytes)."""
    co = zlib.compressobj(6, zlib.DEFLATED, 31)
    return co.compress(raw) + co.flush()


def _record(headers: list[tuple[str, str]], payload: bytes) -> bytes:
    head = _WARC_VERSION + _CRLF
    for k, v in headers:
        head += f"{k}: {v}".encode() + _CRLF
    head += f"Content-Length: {len(payload)}".encode() + _CRLF
    return head + _CRLF + payload + _CRLF + _CRLF


def build_warcinfo(filename: str) -> bytes:
    payload = (f"software: {_SOFTWARE}\r\nformat: WARC File Format 1.0\r\n"
               ).encode()
    return _record(
        [("WARC-Type", "warcinfo"),
         ("WARC-Date", _iso_zulu(0)),
         ("WARC-Filename", filename),
         ("WARC-Record-ID", _record_id("warcinfo|" + filename)),
         ("Content-Type", "application/warc-fields")],
        payload)


def build_response_record(url: str, ts_us: int, html: bytes) -> bytes:
    """One WARC response record wrapping an HTTP/1.1 200 message."""
    http = (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/html; charset=utf-8\r\n"
            + f"Content-Length: {len(html)}".encode() + _CRLF
            + _CRLF + html)
    return _record(
        [("WARC-Type", "response"),
         ("WARC-Target-URI", url),
         ("WARC-Date", _iso_zulu(ts_us)),
         ("WARC-Record-ID", _record_id(f"response|{url}|{ts_us}")),
         ("WARC-Payload-Digest", _payload_digest(html)),
         ("Content-Type", "application/http; msgtype=response")],
        http)


# ---------------------------------------------------------------------------
# sink: corpus parquet → one .warc.gz per host bucket
# ---------------------------------------------------------------------------

def write_warc_bucket(bucket_dir: str, out_path: str) -> int:
    """Serialize one host-bucket partition to a .warc.gz; returns #pages.

    Row order inside the bucket follows the parquet row order (the corpus
    writer's deterministic order), so archives are byte-stable.
    """
    import pyarrow.parquet as pq

    tbl = pq.read_table(bucket_dir, columns=["url", "warc_ts", "html"])
    urls = tbl.column("url").to_pylist()
    tss = tbl.column("warc_ts").cast(pa.int64()).to_pylist()
    htmls = tbl.column("html").to_pylist()
    tmp = out_path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_gzip_member(build_warcinfo(os.path.basename(out_path))))
        for url, ts, html in zip(urls, tss, htmls):
            f.write(_gzip_member(build_response_record(url, ts, html)))
    os.replace(tmp, out_path)  # crash-atomic, same convention as checkpoints
    return len(urls)


def write_warc_pages(tbl: pa.Table, out_path: str) -> int:
    """Serialize a PAGES-shaped table (url, warc_ts, html) to one
    ``.warc.gz`` in row order — the crawl sink's per-task unit (a wave's
    task composition is deterministic, so archives are byte-stable).
    Crash-atomic via tmp + os.replace; returns #pages."""
    urls = tbl.column("url").to_pylist()
    tss = tbl.column("warc_ts").cast(pa.int64()).to_pylist()
    htmls = tbl.column("html").to_pylist()
    tmp = out_path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_gzip_member(build_warcinfo(os.path.basename(out_path))))
        for url, ts, html in zip(urls, tss, htmls):
            if isinstance(html, str):
                html = html.encode()
            f.write(_gzip_member(build_response_record(url, ts, html)))
    os.replace(tmp, out_path)
    return len(urls)


def write_warc(corpus_dir: str, out_dir: str) -> str:
    """Corpus parquet (host_bucket-partitioned) → .warc.gz per bucket.

    One Ray task per bucket file (the writes are file-granular side-effect
    IO, which a task owns end to end); resumable:
    a bucket whose archive file already exists is skipped — the write is
    crash-atomic (tmp + os.replace), so an existing file is complete.
    Callers key ``out_dir`` by corpus identity, so a stale archive from a
    different corpus can't be mistaken for a finished bucket.
    """
    import ray

    os.makedirs(out_dir, exist_ok=True)
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    buckets = sorted(d for d in os.listdir(corpus_dir)
                     if d.startswith("host_bucket="))
    task = ray.remote(num_cpus=1)(write_warc_bucket)
    refs = []
    for b in buckets:
        out_path = os.path.join(out_dir, f"{b.replace('=', '-')}.warc.gz")
        if os.path.exists(out_path):  # finished bucket from a prior run
            continue
        refs.append(task.remote(os.path.join(corpus_dir, b), out_path))
    ray.get(refs)
    # _DONE records the page total across ALL archives, not just the
    # buckets this invocation wrote — after a per-bucket resume the
    # summed task returns undercount (ADVICE r3). Recount from the corpus
    # parquet metadata: each bucket's archive holds exactly its
    # partition's rows (write_warc_bucket is crash-atomic), and metadata
    # num_rows costs no data read.
    total = sum(
        pq.ParquetFile(f).metadata.num_rows
        for b in buckets
        for f in glob.glob(os.path.join(corpus_dir, b, "*.parquet")))
    with open(done, "w") as f:
        f.write(str(total))
    return out_dir


# ---------------------------------------------------------------------------
# source: .warc.gz files → ray.data.Dataset of PAGES-shaped rows
# ---------------------------------------------------------------------------

def iter_gzip_members(blob: bytes):
    """Yield the decompressed bytes of each gzip member in ``blob``."""
    pos = 0
    view = memoryview(blob)
    while pos < len(blob):
        d = zlib.decompressobj(wbits=31)
        out = d.decompress(view[pos:])
        yield out + d.flush()
        consumed = len(blob) - pos - len(d.unused_data)
        if consumed <= 0:  # corrupt trailer; stop rather than spin
            break
        pos += consumed


def parse_warc_records(raw: bytes, verify_digest: bool = True):
    """Parse raw (decompressed) WARC bytes → (url, ts_us, html) tuples.

    Non-response records (warcinfo, request, metadata) are skipped, as a
    Common-Crawl reader must. Works on a whole-file byte string too (all
    members concatenated), since records are self-delimiting via
    Content-Length.
    """
    pos = 0
    n = len(raw)
    while pos < n:
        # skip inter-record padding
        while pos < n and raw[pos:pos + 2] == _CRLF:
            pos += 2
        if pos >= n:
            break
        head_end = raw.find(_CRLF + _CRLF, pos)
        if head_end < 0:
            break
        head_lines = raw[pos:head_end].split(_CRLF)
        if not head_lines or not head_lines[0].startswith(b"WARC/"):
            raise ValueError(f"bad WARC record header at byte {pos}")
        hdr: dict[str, str] = {}
        for line in head_lines[1:]:
            k, _, v = line.partition(b":")
            hdr[k.strip().decode().lower()] = v.strip().decode()
        clen = int(hdr["content-length"])
        body = raw[head_end + 4:head_end + 4 + clen]
        pos = head_end + 4 + clen + 4  # payload + CRLF CRLF
        if hdr.get("warc-type") != "response":
            continue
        # HTTP message: status line, headers, blank line, entity body
        http_split = body.find(_CRLF + _CRLF)
        if http_split < 0:
            raise ValueError("response record without HTTP header block")
        html = bytes(body[http_split + 4:])
        if verify_digest and "warc-payload-digest" in hdr:
            if _payload_digest(html) != hdr["warc-payload-digest"]:
                raise ValueError(
                    f"payload digest mismatch for {hdr.get('warc-target-uri')}")
        yield (hdr["warc-target-uri"], _parse_iso_zulu(hdr["warc-date"]), html)


def _parse_file_batch(batch: pa.Table, verify_digest: bool) -> pa.Table:
    urls: list[str] = []
    tss: list[int] = []
    htmls: list[bytes] = []
    for blob in batch.column("bytes").to_pylist():
        # ray.data.read_binary_files auto-decompresses by .gz extension;
        # sniff the magic so raw member-framed blobs (and plain .warc
        # files) parse identically
        raw = (b"".join(iter_gzip_members(blob))
               if blob[:2] == b"\x1f\x8b" else blob)
        for url, ts, html in parse_warc_records(raw, verify_digest):
            urls.append(url)
            tss.append(ts)
            htmls.append(html)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
    })


def read_warc(path: str, verify_digest: bool = True,
              concurrency: Optional[int] = None):
    """``.warc.gz`` dir/file → Dataset(url, warc_ts, html).

    One input file becomes one parse task (archives are the natural unit
    of parallelism for WARC — Common Crawl segments are ~1 GB each); the
    downstream extract stage re-batches as it pleases.
    """
    import ray.data as rd

    files = rd.read_binary_files(path, file_extensions=["gz", "warc"])
    return files.map_batches(
        lambda b: _parse_file_batch(b, verify_digest),
        batch_format="pyarrow", batch_size=1, concurrency=concurrency)
