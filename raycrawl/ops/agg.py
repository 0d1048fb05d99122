"""Two-level aggregation and the one exchange every wide step goes through.

``aggregate_partials`` runs ``partial_fn`` (a per-batch pandas groupby that
emits one row per key per batch) as a distributed ``map_batches`` stage, then
streams the partial batches to the driver and combines them with one pandas
groupby. That is the right merge whenever |keys| × |blocks| is small (all
partials together are a few MB).

``exchange(inputs, keys, kernel)`` is the engine's only shuffle: joins,
per-key folds, dedup blocking and graph supersteps all call it. It
materializes its inputs and places the kernel by their measured bytes:
at or below ``_DRIVER_BYTES`` it runs once on the driver, because a Ray
all-to-all shuffle has a fixed cost that dwarfs the work at that size
(measured with Ray 2.49 on 4 vCPUs: a 15k-row coarse-partition sum took
0.65–1.5 s over four runs, the same groupby on the driver 0.02 s; whole
dedup ops at 5k docs lose 3–8 s to the shuffle). Above it, the rows are
cut into one coarse hash partition per ``_PART_BYTES`` and the kernel
runs once per partition — never one Ray group per key, which costs
~0.2 ms of scheduler machinery per distinct key.

All aggregates used through these helpers are exact integer sums/counts
(the fixed-point discipline of graph.py and textstats.py), so merge order
never changes results.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

_PARTIAL_BATCH = 65536  # rows per aggregate_partials batch


def aggregate_partials(
    ds,
    partial_fn: Callable[[pd.DataFrame], pd.DataFrame],
    keys: list[str],
    agg_spec: dict[str, str],
) -> pd.DataFrame:
    """``partial_fn`` per batch of ``_PARTIAL_BATCH`` rows, then one
    driver groupby merging each column with its ``agg_spec`` function;
    returns one row per key."""
    partials = ds.map_batches(partial_fn, batch_format="pandas",
                              batch_size=_PARTIAL_BATCH)
    frames = [b for b in partials.iter_batches(batch_size=_PARTIAL_BATCH,
                                               batch_format="pandas")]
    if not frames:
        return pd.DataFrame(columns=keys + list(agg_spec))
    allp = pd.concat(frames, ignore_index=True)
    return allp.groupby(keys, as_index=False).agg(
        **{col: (col, how) for col, how in agg_spec.items()})


# ---------------------------------------------------------------------------
# exchange: one placement rule for every wide step
# ---------------------------------------------------------------------------

# Input bytes at or below which a wide step runs as ONE kernel call on
# the driver. Measured on 4 vCPUs with Ray 2.49: the largest sf0.1 keyed
# table (containment grams) is 6.6 MB and a sort shuffle costs a few
# seconds of fixed overhead there; the full-size scale probes build
# ~90 MB and more, where the coarse-partition shuffle pays.
_DRIVER_BYTES = 32 << 20
_PART_BYTES = 2 << 20  # input bytes per coarse partition
_MAX_PARTS = 4096
_BLOCK_ROWS = 16_384  # rows per block of a driver-placed output

_PLACEMENT_LOGS: "list[list[dict]]" = []


@contextlib.contextmanager
def placement_log():
    """Yields a list that collects one record per exchange run inside
    the block: the kernel, the placement taken, the measured input bytes
    and the partition count (0 on the driver)."""
    log: "list[dict]" = []
    _PLACEMENT_LOGS.append(log)
    try:
        yield log
    finally:
        _PLACEMENT_LOGS.remove(log)


def _empty(table) -> pd.DataFrame:
    """A zero-row frame with a materialized table's typed columns."""
    schema = table.schema()
    if schema is None:
        return pd.DataFrame()
    base = schema.base_schema
    if isinstance(base, pa.Schema):
        return base.empty_table().to_pandas()
    return pd.DataFrame({n: pd.Series([], dtype=t)
                         for n, t in zip(base.names, base.types)})


def _frame(table, empty: pd.DataFrame) -> pd.DataFrame:
    """All rows of a materialized table; ``empty`` when it has none."""
    df = table.to_pandas()
    return df if len(df) else empty


def _key_dtype(dtype) -> str:
    # pandas "string" and object columns hash alike once in Arrow
    return "string" if pd.api.types.is_string_dtype(dtype) else str(dtype)


def _part_of(b: pa.Table, keys: "list[str]", parts: int) -> np.ndarray:
    """Coarse hash partition of every row (deterministic across
    processes: ``hash_array`` uses a fixed key)."""
    h = np.zeros(b.num_rows, dtype=np.uint64)
    for k in keys:
        h = (h * np.uint64(1_000_003)) ^ pd.util.hash_array(
            b.column(k).to_numpy())
    return (h % np.uint64(parts)).astype(np.int32)


def _pieces(b: pa.Table, side: int, keys: "list[str]",
            parts: int) -> pa.Table:
    """One (__part, __side, __piece) row per partition this batch
    touches; the piece is an Arrow IPC stream of the batch's rows in
    that partition, so the shuffled schema never depends on the input."""
    part = _part_of(b, keys, parts)
    order = np.argsort(part, kind="stable")
    part, b = part[order], b.take(order)
    starts = np.flatnonzero(np.r_[True, part[1:] != part[:-1]]) \
        if len(part) else np.empty(0, dtype=np.int64)
    # every piece is written into one buffer, then sliced by offsets
    sink, offsets = pa.BufferOutputStream(), [0]
    for s, e in zip(starts, np.r_[starts[1:], len(part)]):
        with pa.ipc.new_stream(sink, b.schema) as w:
            w.write_table(b.slice(s, e - s))
        offsets.append(sink.tell())
    piece = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(starts),
        [None, pa.array(offsets, pa.int64()).buffers()[1], sink.getvalue()])
    return pa.table({"__part": pa.array(part[starts], pa.int32()),
                     "__side": pa.array(np.full(len(starts), side, np.int8)),
                     "__piece": piece})


def _concat(*frames: pd.DataFrame) -> pd.DataFrame:
    return pd.concat(frames, ignore_index=True)


def exchange(inputs, keys, kernel):
    """Run ``kernel`` over co-located rows of one or more Datasets and
    return its concatenated outputs as a materialized Dataset.

    ``inputs``: the Datasets; ``keys``: one key spec per input (a column
    name or a list of them), the i-th key columns of every input having
    the same dtype (``ValueError`` otherwise). ``kernel(*frames)`` gets
    one DataFrame per input, each holding EVERY row of its input whose
    keys fall in the call (several keys per call: handle them
    vectorized), with that input's own columns; a side with no rows in
    the call still arrives with its typed columns. A join is a kernel
    (``merge``, ``isin``, a left merge), a per-key fold is a groupby.

    The inputs are materialized and their bytes summed. At or below
    ``_DRIVER_BYTES`` the kernel runs once on the driver over all rows;
    above it, once per coarse hash partition, ``ceil(bytes /
    _PART_BYTES)`` of them (at most ``_MAX_PARTS``), every partition
    called even when it is empty."""
    import ray
    import ray.data as rd

    tables = [ds.materialize() for ds in inputs]
    keys = [[k] if isinstance(k, str) else list(k) for k in keys]
    empties = [_empty(t) for t in tables]
    typed = [i for i, e in enumerate(empties) if len(e.columns)]
    if not typed:
        # every input is empty, and Ray passes an empty block through a
        # map without calling its UDF, so no column is known
        return rd.from_pandas(pd.DataFrame())
    kinds = [[_key_dtype(empties[i][k].dtype) for k in keys[i]]
             for i in typed]
    if any(kd != kinds[0] for kd in kinds):
        raise ValueError(f"exchange: key dtypes differ across inputs: "
                         f"{kinds}")
    for i, e in enumerate(empties):
        if not len(e.columns):  # an empty side gets the key columns
            ref = empties[typed[0]][keys[typed[0]]]
            empties[i] = pd.DataFrame({k: ref[r] for k, r in
                                       zip(keys[i], ref.columns)})
    nbytes = sum(t.size_bytes() for t in tables)
    if nbytes <= _DRIVER_BYTES:
        parts = 0
        df = kernel(*(_frame(t, e) for t, e in zip(tables, empties)))
        # a large output keeps the largest input's parallelism for the
        # per-row work downstream (verification scores every pair); a
        # small one stays one block, as tiny blocks cost more than they
        # spread
        n = max(1, min(max(t.num_blocks() for t in tables),
                       -(-len(df) // _BLOCK_ROWS)))
        cuts = np.linspace(0, len(df), n + 1).astype(int)
        out = rd.from_pandas([df.iloc[a:b] for a, b in zip(cuts, cuts[1:])])
    else:
        parts = max(1, min(_MAX_PARTS, -(-nbytes // _PART_BYTES)))

        def run(g: pa.Table) -> pd.DataFrame:
            side = g.column("__side").to_numpy()
            piece = g.column("__piece")
            frames = []
            for i, empty in enumerate(empties):
                tabs = [pa.ipc.open_stream(piece[int(j)].as_buffer())
                        .read_all() for j in np.flatnonzero(side == i)]
                frames.append(pa.concat_tables(
                    tabs, promote_options="permissive").to_pandas()
                    if tabs else empty.copy())
            return kernel(*frames)

        # one empty marker row per partition: every partition is called,
        # so an all-empty input still yields the kernel's typed output
        data = rd.from_arrow(pa.table({
            "__part": pa.array(np.arange(parts), pa.int32()),
            "__side": pa.array(np.full(parts, -1), pa.int8()),
            "__piece": pa.array([b""] * parts, pa.large_binary())}))
        pieces = [t.map_batches(_pieces, fn_args=(i, ks, parts),
                                batch_format="pyarrow", batch_size=None)
                  for i, (t, ks) in enumerate(zip(tables, keys)) if t.count()]
        refs = (data.union(*pieces) if pieces else data).groupby(
            "__part").map_groups(run, batch_format="pyarrow").to_pandas_refs()
        # the sort shuffle makes one output block per input block: the
        # output is rebuilt from at most as many blocks as the largest
        # input has, so it holds no lineage back to the inputs and does
        # not grow when fed back in (a plan that keeps the graph state's
        # lineage doubles in size every superstep)
        concat = ray.remote(_concat)
        out = rd.from_pandas_refs([
            concat.remote(*r) for r in np.array_split(
                np.array(refs, dtype=object),
                max(t.num_blocks() for t in tables)) if len(r)])
    for log in _PLACEMENT_LOGS:
        log.append({"kernel": getattr(kernel, "__name__", "kernel"),
                    "placement": "shuffle" if parts else "driver",
                    "keyed_bytes": int(nbytes), "parts": int(parts)})
    return out
