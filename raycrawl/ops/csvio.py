"""Hash-sharded gzip CSV sink + source — the spreadsheet/warehouse
interchange sibling of :mod:`raycrawl.ops.jsonl` (reference parity:
the eGet converter family's tabular outputs, e.g. the XLSX→rows
bridge in services/converters, re-expressed as a bulk columnar↔CSV
bridge).

Same scale discipline as the JSONL sink: one ``shard-<k>.csv.gz`` per
id-hash shard, each shard serialized in ONE task in ascending id order
(RFC-4180 quoting via the stdlib csv module, gzip mtime=0 → byte-
deterministic re-exports), written crash-atomically (tmp +
``os.replace``) and SKIPPED when the file already holds exactly those
rows — a failed bulk export resumes at file granularity, while a stale
archive from a different export into the same directory is rewritten
(the shared ``jsonl.write_gzip_shards`` pass). The source is
file-granular: one decode task per archive.

CSV cannot distinguish null from the empty string; nulls serialize as
empty fields and read back as ``""`` (documented lossy corner — use the
JSONL sink when null fidelity matters)."""
from __future__ import annotations

import csv
import glob
import gzip
import io
import os

import pandas as pd

from .jsonl import write_gzip_shards


def write_csv_shards(ds, out_dir: str, n_shards: int = 16):
    """Dataset → ``out_dir/shard-<k>.csv.gz`` (shard = doc_id % n_shards —
    deliberately SQL-mirrorable) + a manifest DataFrame
    (shard, n_rows, n_bytes, sum_id). Each archive carries a header
    line; rows are id-sorted and RFC-4180 quoted, so bytes are
    deterministic. An existing archive is kept only when its content is
    the shard's rows, and shard archives this export has no rows for are
    deleted, so the manifest always describes the files."""

    def encode(sub: pd.DataFrame) -> bytes:
        text = io.StringIO()
        w = csv.writer(text, lineterminator="\n")
        w.writerow(list(sub.columns))
        for row in sub.itertuples(index=False):
            w.writerow(["" if pd.isna(v) else v for v in row])
        return text.getvalue().encode("utf-8")

    return write_gzip_shards(ds, out_dir, n_shards, ".csv.gz", encode)


def read_csv_shards(out_dir: str, dtypes=None):
    """``shard-*.csv.gz`` → Dataset. One decode task per archive (gzip
    + stdlib csv.reader inside the task — handles quoted embedded
    newlines/commas); all fields arrive as strings, pass ``dtypes``
    (column → numpy dtype) to restore numerics."""
    import ray.data as rd

    files = sorted(glob.glob(os.path.join(out_dir, "shard-*.csv.gz")))
    if not files:
        raise FileNotFoundError(f"no CSV shards under {out_dir}")

    def decode(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for raw, path in zip(b["bytes"], b["path"]):
            raw = bytes(raw)
            if raw[:2] == b"\x1f\x8b":  # see jsonl.read_jsonl_shards
                raw = gzip.decompress(raw)
            rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
            if not rows:
                raise ValueError(f"CSV shard {path} is empty: no header row")
            header, body = rows[0], rows[1:]
            frames.append(pd.DataFrame(body, columns=header))
        df = pd.concat(frames, ignore_index=True)
        return df.astype(dtypes) if dtypes else df

    return (rd.read_binary_files(files, include_paths=True)
            .map_batches(decode, batch_format="pandas", batch_size=1))
