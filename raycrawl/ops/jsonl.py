"""Hash-sharded gzip JSONL sink + source — the training-data
interchange layout (one ``shard-<k>.jsonl.gz`` per id-hash shard, the
format LLM training loaders consume; reference parity: the eGet
crawler's JSON response payloads, re-expressed as a bulk columnar↔JSONL
bridge).

Scale shape: the sink is a coarse shard-hash partition pass — each
shard's rows land in ONE task which serializes them in ascending id
order (gzip mtime=0, sorted JSON keys → byte-deterministic archives),
writes crash-atomically (tmp + os.replace) and SKIPS a shard whose file
already holds exactly those rows, so a failed bulk export resumes at
file granularity (the same discipline as warc.write_warc — see
raycrawl/warc.py), while a stale archive from a different export into
the same directory is rewritten and one this export has no rows for is
deleted. ``write_gzip_shards`` is that pass for any per-shard encoding;
the CSV sink (:mod:`raycrawl.ops.csvio`) uses it too. The source is
file-granular: one decode task per archive, streaming through
``read_binary_files`` — no driver-side accumulation.
"""
from __future__ import annotations

import glob
import gzip
import io
import json
import os

import numpy as np
import pandas as pd

from ..schema import DOC_ID


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, (pd.Timestamp, np.datetime64)):
        return str(o)
    raise TypeError(type(o).__name__)


def _holds(path: str, data: bytes) -> bool:
    """True when the gzip archive at ``path`` decompresses to ``data``;
    False when it is missing, unreadable or holds other rows."""
    try:
        with gzip.open(path, "rb") as f:
            return f.read() == data
    except (OSError, EOFError):  # missing, not gzip, or truncated
        return False


def write_gzip_shards(ds, out_dir: str, n_shards: int, suffix: str,
                      encode):
    """Dataset → ``out_dir/shard-<k><suffix>`` (shard = doc_id % n_shards),
    each archive the gzip of ``encode(rows)`` over the shard's id-sorted
    rows, + a manifest DataFrame (shard, n_rows, n_bytes, sum_id). An
    existing archive is kept only when it already holds those bytes, and
    shard archives this export has no rows for are deleted, so the
    manifest always describes the files."""
    from .agg import _frame, exchange

    os.makedirs(out_dir, exist_ok=True)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(
            __shard=(b[DOC_ID].to_numpy(np.int64) % n_shards))

    def write_part(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for shard, sub in g.groupby("__shard", sort=True):
            shard = int(shard)
            sub = (sub.sort_values(DOC_ID, kind="mergesort")
                   .drop(columns="__shard"))
            path = os.path.join(out_dir, f"shard-{shard:05d}{suffix}")
            data = encode(sub)
            if not _holds(path, data):  # resumable: finished shard kept
                buf = io.BytesIO()
                # level 6: level 9 costs ~11x the CPU for ~1% size —
                # compression dominates the sink's wall time
                with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0,
                                   compresslevel=6) as z:
                    z.write(data)
                tmp = path + ".tmp"
                with open(tmp, "wb") as f:
                    f.write(buf.getvalue())
                os.replace(tmp, path)
            out.append((shard, len(sub), os.path.getsize(path),
                        int(sub[DOC_ID].sum())))
        return pd.DataFrame(out, columns=["shard", "n_rows", "n_bytes",
                                          "sum_id"]).astype("int64")

    manifest = _frame(
        exchange([ds.map_batches(tag, batch_format="pandas")], ["__shard"],
                 write_part),
        pd.DataFrame(columns=["shard", "n_rows", "n_bytes", "sum_id"]))
    keep = {f"shard-{s:05d}{suffix}" for s in manifest["shard"]}
    for path in glob.glob(os.path.join(out_dir, f"shard-*{suffix}")):
        if os.path.basename(path) not in keep:
            os.remove(path)  # stale: this export has no rows for it
    return (manifest.astype("int64").sort_values("shard")
            .reset_index(drop=True))


def write_jsonl_shards(ds, out_dir: str, n_shards: int = 16):
    """Dataset → ``out_dir/shard-<k>.jsonl.gz`` (shard = doc_id % n_shards —
    deliberately SQL-mirrorable) + a manifest DataFrame
    (shard, n_rows, n_bytes, sum_id). NaN/None fields serialize as JSON
    null; bytes are deterministic (id-sorted rows, sorted keys,
    mtime=0), so re-exports of the same table are byte-identical."""

    def encode(sub: pd.DataFrame) -> bytes:
        lines = []
        for rec in sub.to_dict("records"):
            rec = {k: (None if pd.isna(v) else v) for k, v in rec.items()}
            lines.append(json.dumps(rec, sort_keys=True, ensure_ascii=False,
                                    default=_json_default) + "\n")
        return "".join(lines).encode("utf-8")

    return write_gzip_shards(ds, out_dir, n_shards, ".jsonl.gz", encode)


def read_jsonl_shards(out_dir: str):
    """``shard-*.jsonl.gz`` → Dataset. One decode task per archive
    (gzip + line-split + json.loads inside the task — the per-file unit
    matches the sink's write unit, so source parallelism equals shard
    count)."""
    import ray.data as rd

    files = sorted(glob.glob(os.path.join(out_dir, "shard-*.jsonl.gz")))
    if not files:
        raise FileNotFoundError(f"no JSONL shards under {out_dir}")

    def decode(b: pd.DataFrame) -> pd.DataFrame:
        recs = []
        for raw in b["bytes"]:
            raw = bytes(raw)
            # read_binary_files auto-decompresses by .gz extension;
            # keep the magic check so pre-decompressed payloads and
            # raw archives (e.g. from a different reader) both work
            if raw[:2] == b"\x1f\x8b":
                raw = gzip.decompress(raw)
            text = raw.decode("utf-8")
            recs.extend(json.loads(line) for line in text.splitlines()
                        if line)
        return pd.DataFrame(recs)

    return (rd.read_binary_files(files)
            .map_batches(decode, batch_format="pandas", batch_size=1))
