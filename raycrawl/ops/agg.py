"""Two-level aggregation helper: distributed map-side combine + driver merge.

``aggregate_partials`` runs ``partial_fn`` (a per-batch pandas groupby that
emits one row per key per batch) as a distributed ``map_batches`` stage, then
streams the partial batches to the driver and combines them with one pandas
groupby. That is the right merge whenever |keys| × |blocks| is small (all
partials together are a few MB): a Ray all-to-all shuffle has a fixed cost
that dwarfs the work at that size (measured with Ray 2.49 on 4 vCPUs: a
15k-row ``partitioned_map_partitions`` sum took 0.65–1.5 s over four runs,
the same groupby on the driver 0.02 s; whole dedup ops at 5k docs lose
3–8 s to the shuffle). Unbounded key spaces go through
``partitioned_map_groups`` / ``partitioned_map_partitions`` instead.

All aggregates used through this helper are exact integer sums/counts (the
fixed-point discipline of graph.py and textstats.py), so merge order never
changes results.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd


def aggregate_partials(
    ds,
    partial_fn: Callable[[pd.DataFrame], pd.DataFrame],
    keys: list[str],
    agg_spec: dict[str, str],
    batch_size: int = 65536,
) -> pd.DataFrame:
    """``partial_fn`` per batch, then one driver groupby merging each
    column with its ``agg_spec`` function; returns one row per key."""
    partials = ds.map_batches(partial_fn, batch_format="pandas",
                              batch_size=batch_size)
    frames = [b for b in partials.iter_batches(batch_size=batch_size,
                                               batch_format="pandas")]
    if not frames:
        return pd.DataFrame(columns=keys + list(agg_spec))
    allp = pd.concat(frames, ignore_index=True)
    return allp.groupby(keys, as_index=False).agg(
        **{col: (col, how) for col, how in agg_spec.items()})


def partitioned_map_groups(ds, keys, fn, n_parts: int = 256):
    """``groupby(keys).map_groups(fn)`` with COARSE hash partitions.

    Ray's per-key groupby spends ~0.2 ms of scheduler/group machinery per
    distinct key (measured in the round-3 minhash probe: ~1M buckets →
    minutes), so high-cardinality keyed windows (per-user sessions, as-of
    joins, LSH buckets) must never create one Ray group per key. This is
    ``partitioned_map_partitions`` with a plain pandas groupby inside each
    partition, applying ``fn`` per key (~50× cheaper per key, no Ray
    machinery).

    ``fn``: DataFrame (one full key group) → DataFrame, exactly as with
    ``map_groups``. Memory: one partition holds all rows of its keys —
    size n_parts so (total rows / n_parts) × row width fits a worker."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def per_key(p: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([fn(sub) for _, sub in p.groupby(keys, sort=False)],
                         ignore_index=True)

    return partitioned_map_partitions(ds, keys, per_key, n_parts=n_parts)


def partitioned_map_partitions(ds, keys, fn, n_parts: int = 256):
    """``fn`` over coarse hash partitions of ``keys``: each call receives
    one WHOLE partition (all rows of its keys, multiple keys per call).
    The partition id is a deterministic hash of the key columns, so every
    key's rows co-locate while Ray shuffles only O(n_parts) groups; ``fn``
    handles every key vectorized in one pass (segment ops over a
    (key, ts)-sorted frame), without even a per-key pandas dispatch."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def add_part(b: pd.DataFrame) -> pd.DataFrame:
        h = None
        for k in keys:
            hk = pd.util.hash_array(b[k].to_numpy())
            h = hk if h is None else (h * np.uint64(1_000_003)) ^ hk
        if h is None or len(b) == 0:
            return b.assign(__part=pd.Series([], dtype="int32"))
        return b.assign(__part=(h % np.uint64(n_parts)).astype("int32"))

    def run_part(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns=["__part"]))

    return (ds.map_batches(add_part, batch_format="pandas")
            .groupby("__part").map_groups(run_part, batch_format="pandas"))
