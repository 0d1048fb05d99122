"""Integer fixed-point HITS hubs & authorities (raycrawl/ops/graph.py)."""

import numpy as np
import pandas as pd
import ray.data as rd

from raycrawl.ops.graph import hits

SCALE = 10**6


def reference_hits(edges, nodes, num_iters=5, scale=SCALE):
    """Serial dict implementation of the documented recurrence
    (Python-int exact — the same arithmetic the SQL oracle unrolls)."""
    nodes = sorted(set(nodes))
    n = len(nodes)
    h = {u: scale // n for u in nodes}
    a = {u: 0 for u in nodes}
    for _ in range(num_iters):
        ar = {u: 0 for u in nodes}
        for u, v in edges:
            ar[v] += h[u]
        s = sum(ar.values())
        a = {u: (ar[u] * scale // s if s else 0) for u in nodes}
        hr = {u: 0 for u in nodes}
        for u, v in edges:
            hr[u] += a[v]
        s = sum(hr.values())
        h = {u: (hr[u] * scale // s if s else 0) for u in nodes}
    return pd.DataFrame({"node": nodes,
                         "auth_fp": [a[u] for u in nodes],
                         "hub_fp": [h[u] for u in nodes]})


def _random_graph(n=200, m=800, seed=7, isolated=5):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n - isolated, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    edges = list({(int(s), int(d)) for s, d in zip(src[keep], dst[keep])})
    edges.sort()
    return edges, list(range(n))


def test_broadcast_matches_reference():
    edges, nodes = _random_graph()
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))
    got = hits(eds, nodes, num_iters=5)
    want = reference_hits(edges, nodes)
    pd.testing.assert_frame_equal(
        got.sort_values("node").reset_index(drop=True), want,
        check_dtype=False)
    # sum-normalized: mass ≈ scale (floor-division leakage only)
    assert 0.99 * SCALE < got["auth_fp"].sum() <= SCALE
    assert 0.99 * SCALE < got["hub_fp"].sum() <= SCALE


def test_edgeless_graph_is_all_zero(monkeypatch):
    """No edge sends anything: under either placement every inbox is the
    identity and both vectors stay zero."""
    from tests.test_graph import _place

    for placement in ("broadcast", "shuffle"):
        with monkeypatch.context() as m:
            _place(m, placement)
            eds = rd.from_pandas(pd.DataFrame(
                {"src": pd.Series([], dtype="int64"),
                 "dst": pd.Series([], dtype="int64")}))
            got = hits(eds, [1, 2, 3], num_iters=2)
            assert got["node"].tolist() == [1, 2, 3]
            assert (got["auth_fp"] == 0).all() and (got["hub_fp"] == 0).all()


def test_star_graph_hub_authority_split():
    # one hub u=0 pointing at 4 authorities: hub mass concentrates on 0,
    # authority mass splits evenly across 1..4
    edges = [(0, i) for i in range(1, 5)]
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))
    got = hits(eds, list(range(5)), num_iters=3).set_index("node")
    assert got.loc[0, "hub_fp"] == SCALE
    assert got.loc[0, "auth_fp"] == 0
    assert (got.loc[1:, "auth_fp"] == SCALE // 4).all()
    assert (got.loc[1:, "hub_fp"] == 0).all()
