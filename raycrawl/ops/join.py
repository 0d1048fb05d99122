"""Join utilities (SURVEY.md §2.4 / Ray Data join patterns):

- ``broadcast_join``: the small side is materialized once, ``ray.put``, and
  merged into every batch of the large side — no shuffle. Use whenever one
  side fits a worker heap (dimension tables, wave URL sets, model vocab).
- ``bucket_hash_join``: both sides large — stage the right side to Parquet
  partitioned by ``bucket = hash(key) % B``, then join each left bucket
  group against only its matching right bucket files inside ``map_groups``.
  One shuffle for the left groupby; the right side moves once to storage.
  B is explicit so hot keys can be split (salting) without touching the
  operator.
- Ray ≥2.46 also ships ``Dataset.join`` (hash-shuffle actors); the explicit
  patterns here have predictable shuffle behavior and beat the generic
  operator at the scales benchmarked.
"""

from __future__ import annotations

import glob
import os
import tempfile
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray


def broadcast_join(large_ds, small_df: pd.DataFrame, left_on: str,
                   right_on: Optional[str] = None, how: str = "inner",
                   batch_size: int = 65536):
    right_on = right_on or left_on
    ref = ray.put(small_df)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        small = ray.get(ref)
        return batch.merge(small, how=how, left_on=left_on, right_on=right_on)

    return large_ds.map_batches(merge, batch_format="pandas",
                                batch_size=batch_size)


def _bucket_of(series: pd.Series, num_buckets: int) -> pd.Series:
    return (pd.util.hash_array(series.to_numpy()) % num_buckets).astype("int64")


_STAGE_DIRS: list[str] = []
# auto-created staging kept on disk at once; older dirs are evicted FIFO
# (ADVICE r2: atexit alone let a long-lived driver accumulate unbounded
# /tmp Parquet). A joined dataset must therefore be consumed before
# _MAX_STAGE_DIRS further auto-staged joins start; callers needing longer
# staging lifetimes pass an explicit stage_dir they own.
_MAX_STAGE_DIRS = 8


def _register_stage_dir(stage_dir: str) -> None:
    import atexit
    import shutil

    if not _STAGE_DIRS:
        atexit.register(_cleanup_stage_dirs)
    _STAGE_DIRS.append(stage_dir)
    while len(_STAGE_DIRS) > _MAX_STAGE_DIRS:
        shutil.rmtree(_STAGE_DIRS.pop(0), ignore_errors=True)


def _cleanup_stage_dirs() -> None:
    import shutil

    for d in _STAGE_DIRS:
        shutil.rmtree(d, ignore_errors=True)
    _STAGE_DIRS.clear()


def bucket_hash_join(left_ds, right_ds, left_on: str, right_on: str,
                     num_buckets: int = 32, how: str = "inner",
                     stage_dir: Optional[str] = None,
                     post: "Optional[callable]" = None):
    """Explicit partitioned hash join for two large sides.

    The right side is staged to Parquet under ``stage_dir``; the returned
    dataset is lazy, so the staging cannot be removed eagerly — auto-created
    temp dirs are kept in a FIFO registry capped at ``_MAX_STAGE_DIRS``
    (older staging evicted as new joins start) plus atexit cleanup, so a
    long-lived driver never accumulates unbounded /tmp Parquet. Consume a
    joined dataset before starting ``_MAX_STAGE_DIRS`` further auto-staged
    joins, or pass ``stage_dir`` to manage the lifecycle yourself (e.g. to
    reuse a staged side across joins).

    ``post``: optional DataFrame→DataFrame applied to each bucket's merged
    rows BEFORE they leave the join task. Because the bucket is a hash
    partition of the join key, every row of a key is in the same call —
    a key-grouped aggregate (or per-key top-k partial) pushed here is
    globally correct and saves the second all-to-all a separate
    groupby-after-join would need.

    ``how='semi'`` / ``how='anti'`` keep (resp. drop) left rows whose key
    exists on the right, emitting LEFT columns only — the existence
    filter never duplicates a left row however many right matches there
    are. For these, only the DISTINCT right keys are staged (per-batch
    dedup before the bucket write), so the staged side shrinks to the
    key cardinality regardless of right-table width or row count."""
    if stage_dir is None:
        stage_dir = tempfile.mkdtemp(prefix="raycrawl_join_", dir="/tmp")
        _register_stage_dir(stage_dir)
    existence = how in ("semi", "anti")

    def tag_right(batch: pd.DataFrame) -> pd.DataFrame:
        if existence:
            batch = batch[[right_on]].drop_duplicates()
        return batch.assign(__bucket=_bucket_of(batch[right_on], num_buckets))

    right_ds.map_batches(tag_right, batch_format="pandas").write_parquet(
        stage_dir, partition_cols=["__bucket"])

    files_by_bucket: dict[int, list[str]] = {}
    for d in glob.glob(os.path.join(stage_dir, "__bucket=*")):
        files_by_bucket[int(d.rsplit("=", 1)[1])] = sorted(
            glob.glob(os.path.join(d, "*.parquet")))
    # a left join keeps the left rows of a bucket with no right rows and
    # still gives them every right column: the empty right side is typed
    # from the staged schema (key-only when nothing was staged at all)
    staged = [fs[0] for fs in files_by_bucket.values() if fs]
    empty_right = pq.read_schema(staged[0]).empty_table() if staged else None

    def tag_left(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(__bucket=_bucket_of(batch[left_on], num_buckets))

    def join_group(g: pd.DataFrame) -> pd.DataFrame:
        bucket = int(g["__bucket"].iloc[0])
        files = files_by_bucket.get(bucket, [])
        if existence:
            g = g.drop(columns="__bucket")
            if not files:
                out = g.iloc[0:0] if how == "semi" else g
            else:
                keys = pa.concat_tables(
                    [pq.read_table(f, columns=[right_on])
                     for f in files]).column(right_on).to_pandas()
                mask = g[left_on].isin(keys)
                out = g[mask] if how == "semi" else g[~mask]
            return post(out) if post is not None else out
        if files:
            right = pa.concat_tables(
                [pq.read_table(f) for f in files]).to_pandas()
        elif how != "left":
            return pd.DataFrame()
        elif empty_right is not None:
            right = empty_right.to_pandas()
        else:
            right = pd.DataFrame(
                {right_on: pd.Series([], dtype=g[left_on].dtype)})
        if how == "left":
            # unmatched left rows put NaN in right columns, which
            # upcasts int64 → float64 and silently loses exactness
            # past 2^53 (ADVICE r3: PageRank mass / node ids) —
            # nullable Int64 keeps missing as pd.NA, so callers'
            # fillna(0).astype(int64) stays bit-exact
            for c in right.columns:
                if right[c].dtype == np.int64:
                    right[c] = right[c].astype("Int64")
        merged = g.drop(columns="__bucket").merge(
            right, how=how, left_on=left_on, right_on=right_on)
        return post(merged) if post is not None else merged

    return (left_ds.map_batches(tag_left, batch_format="pandas")
            .groupby("__bucket").map_groups(join_group, batch_format="pandas"))
