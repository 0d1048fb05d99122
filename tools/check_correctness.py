"""Local replica of the driver's correctness gate: run each queries() entry
at sf0.01 and compare against oracle_sql() via DuckDB (row count + schema +
order-insensitive value comparison). Usage: python tools/check_correctness.py
[sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# the sf tables the oracle SQL reads (registered as DuckDB views)
TABLES = ("documents", "embeddings")


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype) == "object":
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    # names may be space- or comma-separated; a bare "--only" flag is
    # tolerated (ignored) — and any name that matches NO query is a hard
    # error, so a typo can never produce a vacuous "all checks passed"
    only = {n for a in sys.argv[2:] for n in a.split(",")
            if n and n != "--only"}
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    unknown = only - set(qs)
    if unknown:
        print(f"FAIL  unknown query name(s): {sorted(unknown)}")
        sys.exit(2)
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok    {name}: rows-only ({len(got)} rows, {dt:.1f}s)")
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        g, e = normalize(got), normalize(exp)
        if list(g.columns) != list(e.columns):
            print(f"FAIL  {name}: columns {list(g.columns)} != {list(e.columns)}")
            failures.append(name)
            continue
        if len(g) != len(e):
            print(f"FAIL  {name}: rows {len(g)} != {len(e)}")
            failures.append(name)
            continue
        try:
            pd.testing.assert_frame_equal(g, e, check_dtype=False,
                                          check_exact=True)
            print(f"OK    {name}: {len(g)} rows match exactly ({dt:.1f}s)")
        except AssertionError as err:
            print(f"FAIL  {name}: value mismatch — {str(err)[:300]}")
            failures.append(name)
    ray.shutdown()
    if failures:
        print("FAILURES:", failures)
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
