"""Recrawl snapshot diffing (raycrawl/ops/delta.py)."""

import numpy as np
import pandas as pd
import ray.data as rd

from raycrawl.ops.delta import snapshot_delta


def test_snapshot_delta_classifies(exchange_placement):
    old = pd.DataFrame({"url": ["a", "b", "c", "d"],
                        "text": ["1", "2", "3", "4"]})
    new = pd.DataFrame({"url": ["a", "b", "e"],
                        "text": ["1", "2x", "5"]})
    for placement in ("driver", "shuffle"):
        exchange_placement(placement, max_parts=4)
        out = snapshot_delta(rd.from_pandas(old), rd.from_pandas(new),
                             key="url", payload="text").to_pandas()
        got = dict(zip(out["url"], out["status"]))
        assert got == {"b": "changed", "c": "removed", "d": "removed",
                       "e": "added"}


def test_snapshot_delta_nan_and_bytes_payloads(exchange_placement):
    old = pd.DataFrame({"k": [1, 2, 3],
                        "p": [b"x", None, b"z"]})
    new = pd.DataFrame({"k": [1, 2, 3],
                        "p": [b"x", None, b"zz"]})
    for placement in ("driver", "shuffle"):
        exchange_placement(placement, max_parts=2)
        out = snapshot_delta(rd.from_pandas(old), rd.from_pandas(new),
                             key="k", payload="p").to_pandas()
        assert dict(zip(out["k"], out["status"])) == {3: "changed"}


def test_snapshot_delta_identical_snapshots_empty(exchange_placement):
    df = pd.DataFrame({"k": np.arange(100), "p": [f"t{i}" for i in range(100)]})
    for placement in ("driver", "shuffle"):
        exchange_placement(placement, max_parts=4)
        out = snapshot_delta(rd.from_pandas(df), rd.from_pandas(df),
                             key="k", payload="p").to_pandas()
        assert len(out) == 0
