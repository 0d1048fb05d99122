"""Link-graph programs over the superstep engine (raycrawl/ops/graph.py)
and the backlink index."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from raycrawl.ops import graph as G
from raycrawl.ops.graph import pagerank


def reference_pagerank(edges, nodes, num_iters=5, scale=10**12):
    """Serial dict implementation of the documented recurrence."""
    nodes = sorted(set(nodes))
    n = len(nodes)
    base = scale // n
    deg = {u: 0 for u in nodes}
    for u, _ in edges:
        deg[u] += 1
    r = {u: base for u in nodes}
    for _ in range(num_iters):
        contrib = {u: 0 for u in nodes}
        for u, v in edges:
            contrib[v] += r[u] // deg[u]
        dang = sum(r[u] for u in nodes if deg[u] == 0)
        add = dang // n
        r = {u: (15 * base + 85 * (contrib[u] + add)) // 100 for u in nodes}
    return pd.DataFrame({"node": nodes,
                         "rank_fp": [r[u] for u in nodes]})


def _random_graph(n=200, m=800, seed=7, isolated=5):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n - isolated, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    edges = list({(int(s), int(d)) for s, d in zip(src[keep], dst[keep])})
    edges.sort()
    return edges, list(range(n))


def _place(monkeypatch, placement, parts=4):
    """Force the engine's placement through its N threshold; under
    shuffle, every ``agg.exchange`` runs on exactly ``parts`` coarse
    partitions (1-byte partitions capped at ``parts``), however tiny
    the test graph."""
    from raycrawl.ops import agg

    monkeypatch.setattr(G, "_AUTO_BROADCAST_NODES",
                        10**12 if placement == "broadcast" else 0)
    monkeypatch.setattr(agg, "_DRIVER_BYTES", -1)
    monkeypatch.setattr(agg, "_PART_BYTES", 1)
    monkeypatch.setattr(agg, "_MAX_PARTS", parts)


def _edges_ds(edges):
    return rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))


def test_broadcast_matches_reference():
    edges, nodes = _random_graph()
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))
    got = pagerank(eds, nodes, num_iters=5)
    want = reference_pagerank(edges, nodes)
    pd.testing.assert_frame_equal(
        got.sort_values("node").reset_index(drop=True), want,
        check_dtype=False)
    # mass approximately conserved (floor-division leakage only)
    assert 0.99 * 10**12 < got["rank_fp"].sum() <= 10**12


def test_dangling_and_isolated_nodes():
    # star: 0 -> 1..4; node 5 isolated; 1..4 dangling
    edges = [(0, k) for k in range(1, 5)]
    nodes = list(range(6))
    got = pagerank(rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"])),
                   nodes, num_iters=4)
    want = reference_pagerank(edges, nodes, num_iters=4)
    pd.testing.assert_frame_equal(
        got.sort_values("node").reset_index(drop=True), want,
        check_dtype=False)
    ranks = dict(zip(got["node"], got["rank_fp"]))
    assert ranks[1] == ranks[2] == ranks[3] == ranks[4] > ranks[0]
    assert ranks[5] < ranks[1]  # isolated node gets only teleport + dangling


def test_auto_picks_broadcast_at_small_n():
    edges, nodes = _random_graph(n=50, m=100, seed=3)
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))
    assert G._Graph(eds, nodes).broadcast
    got = pagerank(eds, nodes, num_iters=2)
    want = reference_pagerank(edges, nodes, num_iters=2)
    pd.testing.assert_frame_equal(
        got.sort_values("node").reset_index(drop=True), want,
        check_dtype=False)


def test_placement_follows_n(monkeypatch):
    """broadcast iff N <= _AUTO_BROADCAST_NODES, for a list and for a
    Dataset universe, on both sides of the threshold."""
    edges, nodes = _random_graph(n=30, m=60, seed=3)
    for universe in (nodes, rd.from_pandas(pd.DataFrame({"node": nodes}))):
        monkeypatch.setattr(G, "_AUTO_BROADCAST_NODES", len(nodes))
        assert G._Graph(_edges_ds(edges), universe).broadcast
        monkeypatch.setattr(G, "_AUTO_BROADCAST_NODES", len(nodes) - 1)
        assert not G._Graph(_edges_ds(edges), universe).broadcast


def reference_components(edges, nodes):
    parent = {u: u for u in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    # min-label convention
    comp = {}
    for u in sorted(nodes):
        comp[u] = find(u)
    # path-compress to true minimum
    return pd.DataFrame({"node": sorted(nodes),
                         "component": [find(u) for u in sorted(nodes)]})


def test_cc_broadcast_matches_union_find():
    from raycrawl.ops.graph import connected_components

    edges, nodes = _random_graph(n=300, m=250, seed=13, isolated=40)
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))
    got = connected_components(eds, nodes)
    want = reference_components(edges, nodes)
    pd.testing.assert_frame_equal(
        got.sort_values("node").reset_index(drop=True), want,
        check_dtype=False)


def test_cc_chain_needs_diameter_rounds():
    from raycrawl.ops.graph import connected_components

    # path graph 0-1-2-...-19: worst-case diameter for hash-min
    edges = [(i, i + 1) for i in range(19)]
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))
    got = connected_components(eds, list(range(20)))
    assert (got["component"] == 0).all()


def test_survivors_distributed_equals_driver():
    """dedup_survivors: union-find (a pandas pair table) and hash-min CC
    (the same pairs as a Dataset) must produce the identical min-label
    canonical ids."""
    from raycrawl.ops.dedup import dedup_survivors

    rng = np.random.default_rng(23)
    ids = list(range(400))
    pairs = pd.DataFrame({
        "id_a": rng.integers(0, 400, size=150),
        "id_b": rng.integers(0, 400, size=150)})
    pairs = pairs[pairs.id_a != pairs.id_b].reset_index(drop=True)
    drv = dedup_survivors(ids, pairs)
    dist = dedup_survivors(ids, rd.from_pandas(pairs))
    pd.testing.assert_frame_equal(
        drv.sort_values("doc_id").reset_index(drop=True),
        dist.sort_values("doc_id").reset_index(drop=True),
        check_dtype=False)


def test_backlink_index_lookup(tmp_path):
    """Staged reverse-link postings: lookup equals a full edge filter, and
    only the target buckets' partitions are opened."""
    from raycrawl.ops.graph import backlinks, build_backlink_index

    edges, nodes = _random_graph(n=100, m=400, seed=31)
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))
    idx = str(tmp_path / "blidx")
    build_backlink_index(eds, idx)
    targets = [3, 19, 64]
    got = (backlinks(idx, targets).to_pandas()
           .sort_values(["dst", "src"]).reset_index(drop=True))
    want = (pd.DataFrame(edges, columns=["src", "dst"])
            .query("dst in @targets")[["dst", "src"]]
            .sort_values(["dst", "src"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # pruning: only the targets' buckets {3, 19, 0} (of 64) are needed
    import os as _os

    all_buckets = {d for d in _os.listdir(idx) if d.startswith("dst_bucket=")}
    assert len(all_buckets) > 2  # index actually has many buckets
    # empty-target lookup returns an empty, well-typed dataset
    assert backlinks(idx, []).count() == 0


def _check_cc_exact_above_2_53():
    """ADVICE r3: the shuffle placement's left joins used to round-trip
    int64 through float64 (NaN upcast), silently corrupting node ids above
    2^53. The superstep kernels never let a missing value into an int64
    column, so hash-min label propagation stays bit-exact on huge ids."""
    from raycrawl.ops.graph import connected_components

    big = 1 << 60  # far past float64's 2^53 integer ceiling
    # two components: {big+1, big+3, big+5} chained, {big+2, big+4}
    # chained, plus an ISOLATED node (big+7): its unmatched left-join row
    # is what used to upcast the whole bucket's inbox column to float64,
    # corrupting the MATCHED rows' odd ids too (one bucket forces
    # co-bucketing, the worst case)
    nodes = [big + k for k in (1, 2, 3, 4, 5, 7)]
    edges = [(big + 1, big + 3), (big + 3, big + 5), (big + 2, big + 4)]
    got = connected_components(_edges_ds(edges), nodes)
    comp = dict(zip(got["node"], got["component"]))
    assert comp == {big + 1: big + 1, big + 3: big + 1, big + 5: big + 1,
                    big + 2: big + 2, big + 4: big + 2,
                    big + 7: big + 7}
    # exactness of the values themselves (not just grouping): every label
    # must be the exact odd/even int, which float64 cannot represent
    assert all(isinstance(v, (int, np.integer)) for v in comp.values())


def test_shuffle_cc_exact_above_2_53(monkeypatch):
    _place(monkeypatch, "shuffle", parts=1)
    _check_cc_exact_above_2_53()


def test_broadcast_cc_exact_above_2_53(monkeypatch):
    _place(monkeypatch, "broadcast", parts=1)
    _check_cc_exact_above_2_53()


def _check_pagerank_exact_above_2_53():
    """Same ADVICE r3 exactness bar for PageRank: with scale past 2^53 the
    contrib/rank integers exceed float64 precision; the run must match
    the serial reference bit-for-bit."""
    edges, nodes = _random_graph(n=40, m=150, seed=11, isolated=3)
    # a node with NO inbound edges gets an unmatched inbox row in the
    # rank-update left join — in one bucket its NaN used to upcast
    # every co-bucketed rank past 2^53 through float64
    no_inbound = 41
    edges = [e for e in edges if e[1] != no_inbound] + [(no_inbound, 0)]
    nodes = nodes + [no_inbound]
    scale = 10 ** 18  # contribs ~2e16: past 2^53 ≈ 9e15, float64 spacing 4
    want = reference_pagerank(edges, nodes, num_iters=3, scale=scale)
    got = pagerank(_edges_ds(edges), nodes, num_iters=3, scale=scale)
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_shuffle_pagerank_exact_above_2_53(monkeypatch):
    _place(monkeypatch, "shuffle", parts=1)
    _check_pagerank_exact_above_2_53()


def test_broadcast_pagerank_exact_above_2_53(monkeypatch):
    _place(monkeypatch, "broadcast", parts=1)
    _check_pagerank_exact_above_2_53()


def _serial_bfs(edges, nodes, seeds, max_depth):
    import collections

    adj = collections.defaultdict(list)
    for s, d in edges:
        adj[s].append(d)
    dist = {s: 0 for s in seeds if s in set(nodes)}
    q = collections.deque(dist)
    while q:
        u = q.popleft()
        if dist[u] >= max_depth:
            continue
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return (pd.DataFrame(sorted(dist.items()), columns=["node", "dist"])
            .astype("int64"))


@pytest.mark.parametrize("method", ["broadcast", "shuffle"])
def test_bfs_distance_dangling_edge_raises(method, monkeypatch):
    """An edge into a dst outside ``node_ids`` is an input error under
    both placements: the shuffle placement must not emit the unknown
    node."""
    from raycrawl.ops.graph import bfs_distance

    _place(monkeypatch, method)
    # 0 -> 1 -> 99, with 99 missing from the node universe
    eds = rd.from_pandas(pd.DataFrame({"src": [0, 1], "dst": [1, 99]}))
    with pytest.raises(ValueError, match="not in the node universe"):
        bfs_distance(eds, [0, 1, 2], [0], max_depth=4)


@pytest.mark.parametrize("placement", ["broadcast", "shuffle"])
def test_every_program_raises_on_unknown_endpoint(placement, monkeypatch):
    """Every program validates every endpoint up front, on the driver —
    BFS included, even for an edge the search never reaches (98 -> 2
    here, with 98 outside the universe and unreachable from seed 0)."""
    _place(monkeypatch, placement)
    eds = _edges_ds([(0, 1), (98, 2)])
    nodes = [0, 1, 2]
    for run in (lambda: G.pagerank(eds, nodes),
                lambda: G.connected_components(eds, nodes),
                lambda: G.hits(eds, nodes),
                lambda: G.bfs_distance(eds, nodes, [0])):
        with pytest.raises(ValueError, match="not in the node universe"):
            run()
    dup = rd.from_pandas(pd.DataFrame({"node": [0, 1, 1, 2]}))
    if placement == "shuffle":  # a Dataset universe must be distinct
        with pytest.raises(ValueError, match="duplicate node id"):
            G.pagerank(_edges_ds([(0, 1)]), dup)


def test_bfs_distance_max_depth_truncates():
    from raycrawl.ops.graph import bfs_distance

    # a 5-node chain: 0 -> 1 -> 2 -> 3 -> 4
    edges = [(i, i + 1) for i in range(4)]
    eds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"]))
    got = bfs_distance(eds, list(range(5)), [0], max_depth=2)
    assert got["node"].tolist() == [0, 1, 2]
    assert got["dist"].tolist() == [0, 1, 2]


def _program(name, edges, nodes):
    """(engine result, serial reference) of one program on one graph."""
    from tests.test_graph_hits import reference_hits

    eds = _edges_ds(edges)
    seeds = [u for u in nodes if u % 17 == 1]
    if name == "pagerank":
        return (G.pagerank(eds, nodes, num_iters=4),
                reference_pagerank(edges, nodes, num_iters=4))
    if name == "components":
        return (G.connected_components(eds, nodes),
                reference_components(edges, nodes))
    if name == "hits":
        return (G.hits(eds, nodes, num_iters=3),
                reference_hits(edges, nodes, num_iters=3))
    return (G.bfs_distance(eds, nodes, seeds, max_depth=8),
            _serial_bfs(edges, nodes, seeds, max_depth=8))


@pytest.mark.parametrize("parts", [1, 8])
@pytest.mark.parametrize("placement", ["broadcast", "shuffle"])
@pytest.mark.parametrize("program",
                         ["pagerank", "components", "hits", "bfs"])
def test_placement_matrix(program, placement, parts, monkeypatch):
    """Every program under either placement, the shuffle's exchanges on
    one or eight coarse partitions, equals its serial reference bit for
    bit (values and int64 dtypes). The graph has isolated nodes,
    dangling nodes, several components and nodes BFS never reaches."""
    from raycrawl.ops.agg import placement_log

    _place(monkeypatch, placement, parts)
    edges, nodes = _random_graph(n=60, m=90, seed=5, isolated=4)
    with placement_log() as log:
        got, want = _program(program, edges, nodes)
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    assert {r["parts"] for r in log} == (
        {parts} if placement == "shuffle" else set())
