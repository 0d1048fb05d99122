"""Recrawl snapshot diffing: what changed between two crawls of the web.

A production crawler re-visits pages on a freshness schedule; the input
to that scheduler is the delta between consecutive snapshots — which
URLs appeared, disappeared, or changed content. ``snapshot_delta``
computes it with ONE two-input ``agg.exchange``: both sides are
fingerprinted per batch (md5 of the payload — the same content-hash
convention as ops/dedup.py's exact dedup) and the kernel is an outer
merge of the two (key, hash) frames. The output is only the
non-identical rows (added / removed / changed), which at real recrawl
rates is a small fraction of the corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .agg import exchange


def _fingerprint(col: pd.Series) -> pd.Series:
    def h(t):
        if isinstance(t, (bytes, bytearray)):
            raw = bytes(t)
        elif t is None or (isinstance(t, float) and t != t):  # None/NaN
            raw = b""
        else:
            raw = str(t).encode()
        return hashlib.md5(raw).hexdigest()

    return col.map(h)


def snapshot_delta(old_ds, new_ds, key: str, payload: str):
    """Dataset(key, payload) × 2 → Dataset(key, status) for status in
    ``added`` (key only in new), ``removed`` (key only in old),
    ``changed`` (both sides, different payload hash). Unchanged keys are
    dropped inside the kernel — they never cross the wire twice.

    Assumes ``key`` is unique within each snapshot (crawl snapshots key by
    canonical URL); a duplicated key compares by its first occurrence."""

    def hashed(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({key: b[key], "__h": _fingerprint(b[payload])})

    def compare(old: pd.DataFrame, new: pd.DataFrame) -> pd.DataFrame:
        m = old.drop_duplicates(key).merge(new.drop_duplicates(key), on=key,
                                           how="outer",
                                           suffixes=("_old", "_new"))
        old_h, new_h = m["__h_old"], m["__h_new"]
        status = np.where(old_h.isna(), "added",
                          np.where(new_h.isna(), "removed",
                                   np.where(old_h != new_h, "changed",
                                            "same")))
        out = pd.DataFrame({key: m[key], "status": status.astype(object)})
        return out[out["status"] != "same"].reset_index(drop=True)

    return exchange([old_ds.map_batches(hashed, batch_format="pandas"),
                     new_ds.map_batches(hashed, batch_format="pandas")],
                    [key, key], compare)
