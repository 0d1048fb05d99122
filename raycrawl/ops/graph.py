"""Link-graph analytics: distributed PageRank for frontier prioritization.

A crawl at 10^10-URL scale wants to spend its politeness budget on pages
that matter; the classic signal is PageRank over the already-extracted
link graph (Page et al., 1999, "The PageRank citation ranking"). This
module computes it with **integer fixed-point arithmetic** so results are
bit-reproducible across partitionings, merge orders and the SQL oracle —
the same fixed-point discipline as search.py.

Recurrence (all floor divisions, nonnegative operands — Python ``//`` ==
DuckDB ``//``):

    N     = |nodes|,  BASE = scale // N
    r0[v] = BASE
    share[u]   = r[u] // outdeg[u]            (outdeg > 0)
    contrib[v] = Σ share[u] over edges u→v
    dang       = Σ r[u] over outdeg-0 nodes   (dangling mass)
    r'[v] = (15*BASE + 85*(contrib[v] + dang // N)) // 100   (d = 0.85)

Two execution paths, auto-selected by node cardinality (the repo-wide
``'auto'`` convention, cf. ops/dedup.py):

- ``'broadcast'`` (N below threshold): the rank/degree vectors live in
  the object store (``ray.put`` once per iteration, read by every edge
  task — never re-shipped per batch); edges stream through
  ``map_batches`` which computes shares and per-batch partial sums by
  dst; the driver folds partials into a numpy vector (≤ N entries —
  exactly the regime where a Ray shuffle's fixed cost dwarfs the work,
  see ops/agg.py). One pass over the edges per iteration.
- ``'shuffle'`` (cluster scale, ranks don't fit one heap): ranks are a
  Dataset; per iteration one ``bucket_hash_join`` edges⋈ranks on src
  (share computed inside the join task), a coarse-partition sum by dst,
  and a second bucket join back onto the node table. Nothing ever
  materializes on the driver except the (scalar) dangling mass.

Edges are ``materialize()``d up front: PageRank makes ``num_iters``
passes, and re-executing an upstream extract pipeline per pass is the
exact anti-pattern the knn.py cardinality_hint note documents.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd

_AUTO_BROADCAST_NODES = 2_000_000  # ≈32 MB of id+rank+deg vectors
_EDGE_BATCH = 262_144  # edges per task: vectorized kernels want big
# batches (default 1024-row batches cost ~30x in per-task overhead,
# measured by the `graph` probe in tools/probes.py)


def _lookup(ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """searchsorted + membership check: a key outside the node universe
    would otherwise silently index a NEIGHBOR slot and corrupt the fold."""
    idx = np.searchsorted(ids, keys)
    bad = (idx >= len(ids)) | (ids[np.minimum(idx, len(ids) - 1)] != keys)
    if bad.any():
        raise ValueError(
            f"graph op: {int(bad.sum())} edge endpoint(s) not in the node "
            f"universe (e.g. {int(keys[bad][0])}) — pass every node id")
    return idx


def _fold_partials(ids: np.ndarray, vec: np.ndarray, part: pd.DataFrame,
                   key: str, val: str) -> None:
    """Accumulate (key, val) partial rows into vec (ids sorted unique)."""
    if len(part) == 0:
        return
    idx = _lookup(ids, part[key].to_numpy(np.int64))
    np.add.at(vec, idx, part[val].to_numpy(np.int64))


def _prepare_universe_ds(edges, node_ids, n_parts: int):
    """Shuffle-path node universe prep, with the SAME contract the
    broadcast `_lookup` guard enforces: every edge endpoint must be in
    the universe (raises otherwise, instead of silently pruning the
    graph through inner/left joins), and duplicate node rows in a
    Dataset universe are rejected (they would inflate N and duplicate
    output rows). One coarse-partition pass validates, dedups and
    returns (distinct-nodes Dataset, N)."""
    import ray.data as rd

    from .agg import partitioned_map_partitions

    if hasattr(node_ids, "map_batches"):
        nodes_ds = node_ids
    else:
        nodes_ds = rd.from_pandas(pd.DataFrame(
            {"node": np.unique(np.asarray(node_ids, dtype=np.int64))}))

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        eps = (np.unique(np.concatenate(
            [b["src"].to_numpy(np.int64), b["dst"].to_numpy(np.int64)]))
            if len(b) else np.array([], dtype=np.int64))
        return pd.DataFrame({"node": eps,
                             "is_node": np.zeros(len(eps), dtype=np.int64)})

    def tag_nodes(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": b["node"].to_numpy(np.int64),
                             "is_node": np.ones(len(b), dtype=np.int64)})

    both = edges.map_batches(endpoints, batch_format="pandas").union(
        nodes_ds.map_batches(tag_nodes, batch_format="pandas"))

    def check(g: pd.DataFrame) -> pd.DataFrame:
        st = g.groupby("node")["is_node"].agg(["max", "sum"])
        missing = st.index[st["max"] == 0]
        if len(missing):
            raise ValueError(
                f"graph op: {len(missing)} edge endpoint(s) not in the "
                f"node universe (e.g. {int(missing[0])}) — pass every "
                f"node id")
        dup = st.index[st["sum"] > 1]
        if len(dup):
            raise ValueError(
                f"graph op: {len(dup)} duplicate node id(s) in the node "
                f"universe (e.g. {int(dup[0])})")
        return pd.DataFrame({"node": st.index.to_numpy(np.int64)})

    nodes_out = partitioned_map_partitions(both, "node", check,
                                           n_parts=n_parts).materialize()
    return nodes_out, nodes_out.count()


def _outdegree_vec(edges_ds, ids: np.ndarray) -> np.ndarray:
    """Distributed out-degree: per-batch counts by src, driver fold."""
    deg = np.zeros(len(ids), dtype=np.int64)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("src", as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    # batch_size=None yields whole blocks: the default 256-row iterator
    # batches made the driver fold 10x slower than the map stage itself
    # (measured by the `graph` probe in tools/probes.py)
    parts = edges_ds.map_batches(partial, batch_format="pandas",
                                 batch_size=_EDGE_BATCH)
    for batch in parts.iter_batches(batch_format="pandas", batch_size=None):
        _fold_partials(ids, deg, batch, "src", "cnt")
    return deg


def pagerank(edges_ds, node_ids, *, num_iters: int = 5,
             scale: int = 10**12, method: str = "auto",
             num_buckets: int = 32, n_parts: int = 64) -> pd.DataFrame:
    """PageRank over Dataset(src:int64, dst:int64) → DataFrame(node, rank_fp).

    ``node_ids``: explicit node universe (list/ndarray for the broadcast
    path, or a Dataset with a ``node`` column for the shuffle path) —
    required because isolated nodes appear in no edge. ``rank_fp`` is the
    fixed-point integer rank (sum ≈ ``scale``); divide by ``scale`` for
    the conventional probabilities.
    """
    if method == "auto":
        n_hint = (node_ids.count() if hasattr(node_ids, "map_batches")
                  else len(node_ids))
        method = "broadcast" if n_hint <= _AUTO_BROADCAST_NODES else "shuffle"
    if method == "broadcast":
        return _pagerank_broadcast(edges_ds, node_ids, num_iters, scale)
    if method == "shuffle":
        return _pagerank_shuffle(edges_ds, node_ids, num_iters, scale,
                                 num_buckets, n_parts)
    raise ValueError(method)


# ---------------------------------------------------------------------------
# broadcast path
# ---------------------------------------------------------------------------

def _pagerank_broadcast(edges_ds, node_ids, num_iters: int,
                        scale: int) -> pd.DataFrame:
    import ray

    if hasattr(node_ids, "to_pandas"):  # Dataset universe also accepted
        node_ids = node_ids.to_pandas()["node"].to_numpy(np.int64)
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    n = len(ids)
    base = scale // n
    edges = edges_ds.materialize()  # num_iters passes over the edge set
    deg = _outdegree_vec(edges, ids)
    r = np.full(n, base, dtype=np.int64)
    dangling = deg == 0
    # ids/deg are loop-invariant: put once; only the rank vector is
    # re-shipped per iteration (review finding: re-putting all three
    # re-serialized ~2/3 dead weight every round)
    static_ref = ray.put({"ids": ids, "deg": deg})

    for _ in range(num_iters):
        r_ref = ray.put(r)

        def share_partial(b: pd.DataFrame, sref=static_ref,
                          rref=r_ref) -> pd.DataFrame:
            st = ray.get(sref)  # zero-copy numpy views from the object store
            rv = ray.get(rref)
            src = b["src"].to_numpy(np.int64)
            si = _lookup(st["ids"], src)
            share = rv[si] // st["deg"][si]
            # exact int64 segment-sum by dst (bincount would go float64
            # and lose exactness past 2^53): cumsum over dst-sorted shares
            dst = b["dst"].to_numpy(np.int64)
            uniq = np.unique(dst)
            order = np.argsort(dst, kind="stable")
            csum = np.concatenate(([0], np.cumsum(share[order])))
            sorted_dst = dst[order]
            starts = np.searchsorted(sorted_dst, uniq, side="left")
            bounds = np.searchsorted(sorted_dst, uniq, side="right")
            return pd.DataFrame({"dst": uniq,
                                 "contrib": csum[bounds] - csum[starts]})

        contrib = np.zeros(n, dtype=np.int64)
        parts = edges.map_batches(share_partial, batch_format="pandas",
                          batch_size=_EDGE_BATCH)
        for batch in parts.iter_batches(batch_format="pandas", batch_size=None):
            _fold_partials(ids, contrib, batch, "dst", "contrib")
        dang = int(r[dangling].sum())
        add = dang // n
        r = (15 * base + 85 * (contrib + add)) // 100
    return pd.DataFrame({"node": ids, "rank_fp": r})


# ---------------------------------------------------------------------------
# shuffle path (ranks never materialize on the driver)
# ---------------------------------------------------------------------------

def _pagerank_shuffle(edges_ds, node_ids, num_iters: int, scale: int,
                      num_buckets: int, n_parts: int) -> pd.DataFrame:
    import ray.data as rd

    from .agg import partitioned_map_partitions
    from .join import bucket_hash_join

    edges = edges_ds.materialize()
    nodes_ds, n = _prepare_universe_ds(edges, node_ids, n_parts)
    base = scale // n

    # out-degree as a dataset: coarse-partition sum by src
    def deg_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("src", as_index=False).size()
        return g.rename(columns={"src": "node", "size": "deg"})

    def deg_combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", as_index=False)["deg"].sum()

    deg_ds = partitioned_map_partitions(
        edges.map_batches(deg_partial, batch_format="pandas"),
        "node", deg_combine, n_parts=n_parts)

    # ranks := nodes ⟕ deg (deg 0 for leaves), r = BASE
    def seed_rank(m: pd.DataFrame) -> pd.DataFrame:
        if "deg" not in m:  # bucket where every node is a leaf
            m = m.assign(deg=0)
        m["deg"] = m["deg"].fillna(0).astype(np.int64)
        m["r"] = np.int64(base)
        return m[["node", "deg", "r"]]

    ranks = bucket_hash_join(nodes_ds, deg_ds, "node", "node",
                             num_buckets=num_buckets, how="left",
                             post=seed_rank).materialize()

    for _ in range(num_iters):
        # dangling mass: scalar aggregate, the only driver-side value
        def dang_partial(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"d": [int(b.loc[b["deg"] == 0, "r"].sum())]})

        dang = sum(int(batch["d"].sum()) for batch in
                   ranks.map_batches(dang_partial, batch_format="pandas")
                   .iter_batches(batch_format="pandas", batch_size=None))
        add = dang // n

        # shares: edges ⋈ ranks on src, partial-sum by dst inside the
        # join bucket, then coarse-partition global sum by dst
        def share_post(m: pd.DataFrame) -> pd.DataFrame:
            live = m[m["deg"] > 0]
            share = live["r"].to_numpy(np.int64) // live["deg"].to_numpy(np.int64)
            part = (pd.DataFrame({"dst": live["dst"].to_numpy(np.int64),
                                  "share": share})
                    .groupby("dst", as_index=False)["share"].sum())
            return part.rename(columns={"dst": "node", "share": "contrib"})

        shares = bucket_hash_join(edges, ranks, "src", "node",
                                  num_buckets=num_buckets, post=share_post)

        def contrib_combine(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby("node", as_index=False)["contrib"].sum()

        contrib_ds = partitioned_map_partitions(shares, "node",
                                                contrib_combine,
                                                n_parts=n_parts)

        def apply_rank(m: pd.DataFrame, base=base, add=add) -> pd.DataFrame:
            c = (m["contrib"].fillna(0).astype(np.int64).to_numpy()
                 if "contrib" in m else np.zeros(len(m), dtype=np.int64))
            m["r"] = (15 * base + 85 * (c + add)) // 100
            return m[["node", "deg", "r"]]

        ranks = bucket_hash_join(ranks, contrib_ds, "node", "node",
                                 num_buckets=num_buckets, how="left",
                                 post=apply_rank).materialize()

    # collect the final vector for API parity with the broadcast path; a
    # cluster-scale caller keeps iterating on `ranks` as a Dataset instead
    out = ranks.to_pandas()[["node", "r"]].rename(columns={"r": "rank_fp"})
    return out.sort_values("node").reset_index(drop=True)


# ---------------------------------------------------------------------------
# connected components (hash-min label propagation)
# ---------------------------------------------------------------------------

def connected_components(edges_ds, node_ids, *, max_iters: int = 50,
                         method: str = "auto", n_parts: int = 64,
                         num_buckets: int = 16) -> pd.DataFrame:
    """Undirected connected components → DataFrame(node, component), where
    ``component`` is the minimum node id of the component (the same
    min-label convention as dedup.py's union-find survivors).

    Hash-min label propagation (Rastogi et al., ICDE'13 family): every
    node starts labeled with itself; each round a node adopts the min
    label among itself and its neighbors; converged when a round changes
    nothing. Rounds ≤ graph diameter. This is the DISTRIBUTED scale path
    for near-dup clustering — dedup.py's driver union-find is right while
    verified pairs ≪ corpus, but a pair set that no longer fits the
    driver propagates here with only per-round edge passes.

    ``'broadcast'``: the label vector lives in the object store (one
    ``ray.put`` per round); edges stream through ``map_batches`` emitting
    per-batch (node, min-candidate) partials folded on the driver.
    ``'shuffle'``: labels stay a Dataset; each round is one
    ``bucket_hash_join`` edges⋈labels per direction + a coarse-partition
    min by node — nothing driver-side but the changed-count scalar.
    """
    if method == "auto":
        n_hint = (node_ids.count() if hasattr(node_ids, "map_batches")
                  else len(node_ids))
        method = "broadcast" if n_hint <= _AUTO_BROADCAST_NODES else "shuffle"
    if method == "broadcast":
        return _cc_broadcast(edges_ds, node_ids, max_iters)
    if method == "shuffle":
        return _cc_shuffle(edges_ds, node_ids, max_iters, n_parts,
                           num_buckets)
    raise ValueError(method)


def _cc_broadcast(edges_ds, node_ids, max_iters: int) -> pd.DataFrame:
    import ray

    if hasattr(node_ids, "to_pandas"):
        node_ids = node_ids.to_pandas()["node"].to_numpy(np.int64)
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    labels = ids.copy()
    edges = edges_ds.materialize()
    ids_ref = ray.put(ids)  # loop-invariant; only labels re-ship per round
    converged = False

    for _ in range(max_iters):
        lab_ref = ray.put(labels)

        def min_partial(b: pd.DataFrame, iref=ids_ref,
                        lref=lab_ref) -> pd.DataFrame:
            uids = ray.get(iref)
            lab = ray.get(lref)
            src = b["src"].to_numpy(np.int64)
            dst = b["dst"].to_numpy(np.int64)
            ls = lab[_lookup(uids, src)]
            ld = lab[_lookup(uids, dst)]
            # undirected: each endpoint proposes its label to the other
            node = np.concatenate([dst, src])
            cand = np.concatenate([ls, ld])
            df = pd.DataFrame({"node": node, "cand": cand})
            return df.groupby("node", as_index=False)["cand"].min()

        new_labels = labels.copy()
        parts = edges.map_batches(min_partial, batch_format="pandas",
                          batch_size=_EDGE_BATCH)
        for batch in parts.iter_batches(batch_format="pandas", batch_size=None):
            idx = _lookup(ids, batch["node"].to_numpy(np.int64))
            np.minimum.at(new_labels, idx, batch["cand"].to_numpy(np.int64))
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    if not converged:
        raise RuntimeError(
            f"connected_components did not converge within max_iters="
            f"{max_iters} rounds (a component's diameter exceeds it) — "
            f"raise max_iters; returning partial labels would be silently "
            f"wrong")
    return pd.DataFrame({"node": ids, "component": labels})


def _cc_shuffle(edges_ds, node_ids, max_iters: int,
                n_parts: int, num_buckets: int = 16) -> pd.DataFrame:
    from .agg import partitioned_map_partitions
    from .join import bucket_hash_join

    # undirected once: double the edge list up front
    def undirect(b: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([b[["src", "dst"]],
                          b.rename(columns={"src": "dst", "dst": "src"})
                          [["src", "dst"]]], ignore_index=True)

    edges = edges_ds.map_batches(
        undirect, batch_format="pandas").materialize()
    nodes_ds, _ = _prepare_universe_ds(edges, node_ids, n_parts)

    def seed(m: pd.DataFrame) -> pd.DataFrame:
        m["label"] = m["node"]
        return m[["node", "label"]]

    labels = nodes_ds.map_batches(seed, batch_format="pandas").materialize()

    for _ in range(max_iters):
        # candidates: every neighbor's label, then min per node
        def prop_post(m: pd.DataFrame) -> pd.DataFrame:
            return (pd.DataFrame({"node": m["dst"].to_numpy(np.int64),
                                  "cand": m["label"].to_numpy(np.int64)})
                    .groupby("node", as_index=False)["cand"].min())

        cands = bucket_hash_join(edges, labels, "src", "node",
                                 num_buckets=num_buckets, post=prop_post)

        def min_combine(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby("node", as_index=False)["cand"].min()

        cand_ds = partitioned_map_partitions(cands, "node", min_combine,
                                             n_parts=n_parts)

        def apply_min(m: pd.DataFrame) -> pd.DataFrame:
            lab = m["label"].to_numpy(np.int64)
            if "cand" in m:
                # NaN-mask instead of fillna(INT64_MAX): the fill value
                # round-trips through float64 and would wrap to INT64_MIN
                has = m["cand"].notna().to_numpy()
                c = m["cand"].fillna(0).astype(np.int64).to_numpy()
                new = np.where(has, np.minimum(lab, c), lab)
            else:
                new = lab
            m = m.assign(label=new, __changed=(new != lab).astype(np.int64))
            return m[["node", "label", "__changed"]]

        merged = bucket_hash_join(labels, cand_ds, "node", "node",
                                  num_buckets=num_buckets, how="left",
                                  post=apply_min).materialize()
        n_changed = sum(
            int(b["__changed"].sum()) for b in
            merged.select_columns(["__changed"])
            .iter_batches(batch_format="pandas", batch_size=None))
        labels = merged.drop_columns(["__changed"]).materialize()
        if n_changed == 0:
            break
    else:
        raise RuntimeError(
            f"connected_components did not converge within max_iters="
            f"{max_iters} rounds (a component's diameter exceeds it) — "
            f"raise max_iters; returning partial labels would be silently "
            f"wrong")
    out = labels.to_pandas().rename(columns={"label": "component"})
    return out.sort_values("node").reset_index(drop=True)


# ---------------------------------------------------------------------------
# backlink index (reverse link graph, staged + partition-pruned lookup)
# ---------------------------------------------------------------------------

def build_backlink_index(edges_ds, index_dir: str,
                         num_buckets: int = 64) -> None:
    """Stage the REVERSE link graph as bucket-partitioned Parquet postings:
    one (dst, src) row per edge, hive-partitioned by
    ``dst_bucket = dst % num_buckets``, so a who-links-here lookup reads
    only its targets' partitions — the same real-IO-pruning shape as the
    text index (search.py:build_text_index) and the IVF vector index.
    Anchor-graph lookups (spam analysis, link-based labels, authority
    propagation) are per-target at serving time; scanning the full edge
    list per query is the anti-pattern this staging removes.

    Cached behind a _DONE marker; built atomically via a staged temp dir
    + rename (raycrawl.staging) so concurrent builders never expose a
    partial index."""
    from ..staging import atomic_build_dir, is_complete

    if is_complete(index_dir):
        return
    B = num_buckets

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "dst": b["dst"].to_numpy(np.int64),
            "src": b["src"].to_numpy(np.int64),
            "dst_bucket": (b["dst"].to_numpy(np.int64) % B).astype("int32"),
        })

    atomic_build_dir(
        index_dir,
        lambda tmp: edges_ds.map_batches(add_bucket, batch_format="pandas")
        .write_parquet(tmp, partition_cols=["dst_bucket"]))


def backlinks(index_dir: str, targets, num_buckets: int = 64):
    """Postings lookup: Dataset(dst, src) of every in-link of ``targets``,
    reading only the target buckets' partitions."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    targets = sorted({int(t) for t in targets})
    buckets = sorted({t % num_buckets for t in targets})
    files: list[str] = []
    for b in buckets:
        files.extend(sorted(glob.glob(
            os.path.join(index_dir, f"dst_bucket={b}", "*.parquet"))))
    if not files:
        return rd.from_arrow(pa.table({
            "dst": pa.array([], pa.int64()),
            "src": pa.array([], pa.int64())}))
    tset = pa.array(targets, pa.int64())

    def pick(batch):
        return batch.filter(pc.is_in(batch.column("dst"), tset))

    return (rd.read_parquet(files, columns=["dst", "src"])
            .map_batches(pick, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# anchor-text index (the classic web-scale anchor corpus)
# ---------------------------------------------------------------------------

def _node_text(node) -> str:
    """Concatenated text runs under a node (anchor label)."""
    from ..html.dom import TEXT

    parts: list[str] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n.tag == TEXT:
            parts.append(n.text)
        else:
            stack.extend(reversed(n.children))
    return " ".join(" ".join(parts).split())


def anchor_text_index(pages_ds, n_parts: int = 64):
    """PAGES (url, html) → (dst_url, n_anchors, anchor_texts): every
    page's outgoing <a href> anchors, aggregated per TARGET — the anchor-
    text corpus behind link-based labels, retrieval training pairs and
    spam features (Craswell et al. 2001's anchor evidence; every major
    search stack materializes this table).

    Shape: stateless ``map_batches`` parse (one DOM pass per page, href
    normalized against the page url) → coarse hash partitions on dst_url
    (never one Ray group per target — targets are unbounded) → per-target
    aggregate: ``n_anchors`` = number of in-anchors, ``anchor_texts`` =
    ' | '-joined sorted DISTINCT labels (deterministic under any
    partitioning / arrival order)."""
    import pandas as pd

    from ..html.dom import parse_html
    from ..urlnorm import normalize_url
    from .agg import partitioned_map_groups

    def anchors(batch: pd.DataFrame) -> pd.DataFrame:
        dsts: list[str] = []
        texts: list[str] = []
        for url, html in zip(batch["url"], batch["html"]):
            raw = (html.decode("utf-8", errors="replace")
                   if isinstance(html, (bytes, bytearray)) else (html or ""))
            try:
                root = parse_html(raw)
            except Exception:
                continue
            for a in root.find_all("a", href=True):
                href = a.get("href")
                if not href:
                    continue
                try:
                    dst = normalize_url(href, url)
                except Exception:
                    continue
                dsts.append(dst)
                texts.append(_node_text(a))
        return pd.DataFrame({"dst_url": pd.Series(dsts, dtype="string"),
                             "anchor_text": pd.Series(texts, dtype="string")})

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "dst_url": [g["dst_url"].iloc[0]],
            "n_anchors": pd.Series([len(g)], dtype="int64"),
            "anchor_texts": [" | ".join(sorted(set(g["anchor_text"])))]})

    rows = pages_ds.map_batches(anchors, batch_format="pandas")
    return partitioned_map_groups(rows, ["dst_url"], agg, n_parts=n_parts)


# ---------------------------------------------------------------------------
# HITS (hubs & authorities)
# ---------------------------------------------------------------------------

def _hits_normalize(raw: np.ndarray, scale: int):
    """Exact sum-normalization: v = raw * scale // Σraw (zeros if Σ = 0).

    int64-vectorized while Σraw·scale < 2^63 (true whenever
    max-degree·scale² < 2^63, i.e. degree < 9.2·10^6 at scale 10^6);
    past that it falls back to exact Python-int math — same answers,
    driver-side O(N) either way (this runs on the ≤-broadcast-threshold
    vector or inside a join bucket's slice)."""
    s = int(raw.sum(dtype=np.object_)) if len(raw) else 0
    if s == 0:
        return np.zeros(len(raw), dtype=np.int64), 0
    if s <= (2**63 - 1) // scale:
        return (raw * scale) // s, s
    out = (raw.astype(object) * scale) // s
    return np.fromiter((int(x) for x in out), dtype=np.int64,
                       count=len(out)), s


def hits(edges_ds, node_ids, *, num_iters: int = 5, scale: int = 10**6,
         method: str = "auto", num_buckets: int = 32,
         n_parts: int = 64) -> pd.DataFrame:
    """HITS hubs-and-authorities (Kleinberg, JACM'99) over
    Dataset(src:int64, dst:int64) → DataFrame(node, auth_fp, hub_fp) —
    the query-independent companion signal to :func:`pagerank` for
    frontier prioritization (a high-hub page's outlinks are worth
    admitting even when the page itself ranks low).

    Integer fixed-point, bit-reproducible across partitionings and the
    SQL oracle (the module-wide discipline). Recurrence — all floor
    divisions, nonnegative operands, Python ``//`` == DuckDB ``//``:

        h0[v]  = scale // N
        a'[v]  = Σ h[u]  over edges u→v          (authority from in-links)
        a[v]   = a'[v] · scale // Σ a'           (sum-normalized, 0 if Σ=0)
        h'[u]  = Σ a[v]  over edges u→v          (hub from out-links)
        h[u]   = h'[u] · scale // Σ h'

    Sum-normalization (not the conventional L2) keeps every step in
    exact integers; it rescales both vectors identically, so the
    *ranking* matches the L2 variant at every iteration. Exactness
    bound: max-degree · scale² < 2^63 for the vectorized path (the
    normalizer falls back to Python-int math past it, same answers).

    Paths mirror :func:`pagerank` — ``'broadcast'`` keeps the two N-entry
    vectors in the object store (one ``ray.put`` per half-iteration) and
    streams edges through ``map_batches`` partial sums; ``'shuffle'``
    keeps state as a Dataset with one ``bucket_hash_join`` per direction
    per iteration and only the two scalar normalizers driver-side.
    Equivalence is pytest-pinned (tests/test_graph_hits.py).
    """
    if method == "auto":
        n_hint = (node_ids.count() if hasattr(node_ids, "map_batches")
                  else len(node_ids))
        method = "broadcast" if n_hint <= _AUTO_BROADCAST_NODES else "shuffle"
    if method == "broadcast":
        return _hits_broadcast(edges_ds, node_ids, num_iters, scale)
    if method == "shuffle":
        return _hits_shuffle(edges_ds, node_ids, num_iters, scale,
                             num_buckets, n_parts)
    raise ValueError(method)


def _hits_broadcast(edges_ds, node_ids, num_iters: int,
                    scale: int) -> pd.DataFrame:
    import ray

    if hasattr(node_ids, "to_pandas"):
        node_ids = node_ids.to_pandas()["node"].to_numpy(np.int64)
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    n = len(ids)
    edges = edges_ds.materialize()  # 2·num_iters passes over the edge set
    ids_ref = ray.put(ids)          # loop-invariant: put once
    h = np.full(n, scale // n, dtype=np.int64)
    a = np.zeros(n, dtype=np.int64)

    def _sweep(vec: np.ndarray, take_col: str, emit_col: str) -> np.ndarray:
        """One half-iteration: Σ vec[take] grouped by emit, distributed.
        Same exact int64 segment-sum kernel as _pagerank_broadcast
        (cumsum over sorted keys — bincount would go float64)."""
        v_ref = ray.put(vec)

        def partial(b: pd.DataFrame, iref=ids_ref, vref=v_ref,
                    take=take_col, emit=emit_col) -> pd.DataFrame:
            uids = ray.get(iref)
            vv = ray.get(vref)
            contrib = vv[_lookup(uids, b[take].to_numpy(np.int64))]
            key = b[emit].to_numpy(np.int64)
            uniq = np.unique(key)
            order = np.argsort(key, kind="stable")
            csum = np.concatenate(([0], np.cumsum(contrib[order])))
            sk = key[order]
            lo = np.searchsorted(sk, uniq, side="left")
            hi = np.searchsorted(sk, uniq, side="right")
            return pd.DataFrame({"node": uniq, "v": csum[hi] - csum[lo]})

        raw = np.zeros(n, dtype=np.int64)
        parts = edges.map_batches(partial, batch_format="pandas",
                                  batch_size=_EDGE_BATCH)
        for batch in parts.iter_batches(batch_format="pandas",
                                        batch_size=None):
            _fold_partials(ids, raw, batch, "node", "v")
        return raw

    for _ in range(num_iters):
        a, _ = _hits_normalize(_sweep(h, "src", "dst"), scale)
        h, _ = _hits_normalize(_sweep(a, "dst", "src"), scale)
    return pd.DataFrame({"node": ids, "auth_fp": a, "hub_fp": h})


def _hits_shuffle(edges_ds, node_ids, num_iters: int, scale: int,
                  num_buckets: int, n_parts: int) -> pd.DataFrame:
    from .agg import partitioned_map_partitions
    from .join import bucket_hash_join

    edges = edges_ds.materialize()
    nodes_ds, n = _prepare_universe_ds(edges, node_ids, n_parts)

    def seed(m: pd.DataFrame) -> pd.DataFrame:
        m["a"] = np.int64(0)
        m["h"] = np.int64(scale // n)
        return m[["node", "a", "h"]]

    state = nodes_ds.map_batches(seed, batch_format="pandas").materialize()

    def _half(state, take_col: str, emit_col: str, state_val: str,
              out_val: str):
        """edges ⋈ state on take_col (partial-sum by emit inside the
        bucket), coarse-partition global sum, scalar normalizer, then one
        left join writes the normalized vector back onto the state."""
        def sum_post(m: pd.DataFrame, emit=emit_col,
                     sv=state_val) -> pd.DataFrame:
            part = (pd.DataFrame({"node": m[emit].to_numpy(np.int64),
                                  "raw": m[sv].to_numpy(np.int64)})
                    .groupby("node", as_index=False)["raw"].sum())
            return part

        raws = bucket_hash_join(edges, state, take_col, "node",
                                num_buckets=num_buckets, post=sum_post)

        def raw_combine(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby("node", as_index=False)["raw"].sum()

        raw_ds = partitioned_map_partitions(raws, "node", raw_combine,
                                            n_parts=n_parts).materialize()
        total = 0
        for batch in raw_ds.iter_batches(batch_format="pandas",
                                         batch_size=None):
            if len(batch):
                total += int(batch["raw"].to_numpy(np.int64)
                             .sum(dtype=object))

        def apply_norm(m: pd.DataFrame, total=total,
                       ov=out_val) -> pd.DataFrame:
            raw = (m["raw"].fillna(0).astype(np.int64).to_numpy()
                   if "raw" in m else np.zeros(len(m), dtype=np.int64))
            if total == 0:
                m[ov] = np.int64(0)
            elif total <= (2**63 - 1) // scale:
                m[ov] = (raw * scale) // total
            else:
                m[ov] = np.fromiter(
                    (int(x) * scale // total for x in raw),
                    dtype=np.int64, count=len(raw))
            return m[["node", "a", "h"]]

        return bucket_hash_join(state, raw_ds, "node", "node",
                                num_buckets=num_buckets, how="left",
                                post=apply_norm).materialize()

    for _ in range(num_iters):
        state = _half(state, "src", "dst", "h", "a")   # authorities
        state = _half(state, "dst", "src", "a", "h")   # hubs
    out = state.to_pandas()[["node", "a", "h"]].rename(
        columns={"a": "auth_fp", "h": "hub_fp"})
    out = out.astype({"node": "int64", "auth_fp": "int64",
                      "hub_fp": "int64"})
    return out.sort_values("node").reset_index(drop=True)


# ---------------------------------------------------------------------------
# multi-source BFS shortest-hop distance
# ---------------------------------------------------------------------------


def bfs_distance(edges_ds, node_ids, seeds, *, max_depth: int = 8,
                 method: str = "auto", n_parts: int = 64,
                 num_buckets: int = 16) -> pd.DataFrame:
    """Multi-source directed BFS → DataFrame(node, dist): the shortest
    hop count from the NEAREST seed, for every node reachable within
    ``max_depth`` hops (unreached nodes are omitted). The crawl-native
    graph question — "how many link hops from the seed list is this
    page" — and the level-synchronous pattern behind reachability,
    influence radius, and seed-set coverage audits.

    Level-synchronous BFS is exact by construction (a node is first
    reached at its true shortest distance), so both execution paths are
    bit-identical; rounds ≤ min(max_depth, eccentricity of the seed
    set).

    ``'broadcast'``: the distance vector lives on the driver (one
    N-entry int array — the same cardinality contract as
    :func:`pagerank`'s broadcast path); each level ships the CURRENT
    frontier ids once via ``ray.put`` and streams edges through
    ``map_batches`` (sorted-array membership, vectorized), folding the
    per-batch reached-node partials into the vector.

    ``'shuffle'``: nothing node-shaped on the driver. Each level is one
    ``bucket_hash_join(edges, frontier, how='semi')`` (frontier keys
    only are staged), a coarse-partition distinct on dst, and one
    ``how='anti'`` against the reached set; the reached set stays a
    Dataset that grows by union. Per-level cost is O(edges touched),
    total O(E) across the run — each edge's source is in the frontier
    at most once.

    Both paths raise ``ValueError`` when an edge reaches a node outside
    ``node_ids``."""
    if method == "auto":
        n_hint = (node_ids.count() if hasattr(node_ids, "map_batches")
                  else len(node_ids))
        method = ("broadcast" if n_hint <= _AUTO_BROADCAST_NODES
                  else "shuffle")
    if method == "broadcast":
        return _bfs_broadcast(edges_ds, node_ids, seeds, max_depth)
    if method == "shuffle":
        return _bfs_shuffle(edges_ds, node_ids, seeds, max_depth,
                            n_parts, num_buckets)
    raise ValueError(method)


def _bfs_broadcast(edges_ds, node_ids, seeds, max_depth: int
                   ) -> pd.DataFrame:
    import ray

    if hasattr(node_ids, "to_pandas"):
        node_ids = node_ids.to_pandas()["node"].to_numpy(np.int64)
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    seed_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
    seed_arr = seed_arr[np.isin(seed_arr, ids)]
    dist = np.full(len(ids), -1, dtype=np.int64)
    dist[_lookup(ids, seed_arr)] = 0
    edges = edges_ds.materialize()

    for d in range(max_depth):
        frontier = ids[dist == d]  # ascending — ids is sorted
        if len(frontier) == 0:
            break
        fref = ray.put(frontier)

        def reached(b: pd.DataFrame, fref=fref) -> pd.DataFrame:
            f = ray.get(fref)
            src = b["src"].to_numpy(np.int64)
            pos = np.searchsorted(f, src)
            pos[pos == len(f)] = 0
            hit = f[pos] == src
            dst = np.unique(b["dst"].to_numpy(np.int64)[hit])
            return pd.DataFrame({"node": dst})

        parts = edges.map_batches(reached, batch_format="pandas",
                                  batch_size=_EDGE_BATCH)
        any_new = False
        for batch in parts.iter_batches(batch_format="pandas",
                                        batch_size=None):
            if not len(batch):
                continue
            idx = _lookup(ids, batch["node"].to_numpy(np.int64))
            fresh = dist[idx] == -1
            if fresh.any():
                dist[idx[fresh]] = d + 1
                any_new = True
        if not any_new:
            break
    keep = dist >= 0
    return (pd.DataFrame({"node": ids[keep], "dist": dist[keep]})
            .reset_index(drop=True))


def _unknown_nodes(b: pd.DataFrame, ids) -> pd.DataFrame:
    node = b["node"].to_numpy(np.int64)
    return pd.DataFrame({"node": node[~np.isin(node, ids)]})


def _bfs_shuffle(edges_ds, node_ids, seeds, max_depth: int,
                 n_parts: int, num_buckets: int) -> pd.DataFrame:
    import ray
    import ray.data as rd

    from .agg import partitioned_map_partitions
    from .join import bucket_hash_join

    edges = edges_ds.materialize()
    seed_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if hasattr(node_ids, "to_pandas"):
        node_ids = node_ids.to_pandas()["node"].to_numpy(np.int64)
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    seed_arr = seed_arr[np.isin(seed_arr, ids)]
    iref = ray.put(ids)

    frontier = rd.from_pandas(pd.DataFrame(
        {"node": seed_arr})).materialize()
    reached = rd.from_pandas(pd.DataFrame(
        {"node": seed_arr,
         "dist": np.zeros(len(seed_arr), dtype=np.int64)})).materialize()

    for d in range(1, max_depth + 1):
        hits = bucket_hash_join(
            edges, frontier, left_on="src", right_on="node",
            how="semi", num_buckets=num_buckets,
            post=lambda m: m[["dst"]].drop_duplicates())

        def as_node(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": b["dst"].to_numpy(np.int64)})

        nxt = partitioned_map_partitions(
            hits.map_batches(as_node, batch_format="pandas"),
            ["node"], lambda g: g.drop_duplicates("node"),
            n_parts=n_parts)
        new = bucket_hash_join(
            nxt, reached, left_on="node", right_on="node",
            how="anti", num_buckets=num_buckets).materialize()
        if new.count() == 0:
            break
        # membership is checked in-task; only unknown dsts reach the
        # driver, which raises the broadcast path's error for them
        bad = new.map_batches(_unknown_nodes, fn_args=(iref,),
                              batch_format="pandas").to_pandas()
        if len(bad):
            _lookup(ids, bad["node"].to_numpy(np.int64))

        def with_dist(b: pd.DataFrame, d=d) -> pd.DataFrame:
            return pd.DataFrame({
                "node": b["node"].to_numpy(np.int64),
                "dist": np.full(len(b), d, dtype=np.int64)})

        tagged = new.map_batches(with_dist,
                                 batch_format="pandas").materialize()
        reached = reached.union(tagged).materialize()
        frontier = new

    out = reached.to_pandas().astype({"node": "int64", "dist": "int64"})
    return out.sort_values("node").reset_index(drop=True)
