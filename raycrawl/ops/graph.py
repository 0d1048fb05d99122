"""Link-graph analytics: PageRank, HITS, connected components and BFS hop
depth as short vertex programs over one superstep engine, plus the
backlink and anchor-text indexes.

A crawl at 10^10-URL scale wants to spend its politeness budget on pages
that matter. The link-graph signals behind that (PageRank and HITS for
frontier priority, components for near-dup clusters, BFS hop depth from
the seed list) all repeat one superstep (Pregel, SIGMOD 2010; the GAS
model of PowerGraph, OSDI 2012): every node sends a message along its
edges, the messages are combined per receiving node, and a per-node
function updates the node state. This module writes that superstep once.
A program's state is a table with one row per node (a ``node`` column plus
the program's own int64 columns), and a program calls only three
primitives:

- ``superstep(g, state, msg_col, along, combine)`` sends ``msg_col``
  along every edge (``out``: an edge u→v delivers u's message to v,
  ``in``: v's message to u, ``both``), combines per receiver by ``sum``
  or ``min`` and adds the result as an ``inbox`` column, filled with the
  combine's identity (0, INT64_MAX) where nothing arrived. A message
  equal to that identity is not sent.
- ``total(g, state, fn)``: the exact Python-int sum of ``fn(state)``
  (dangling mass, HITS normalizers, halt counts).
- ``update(g, state, fn)``: a per-node pandas function.

Placement is chosen from the node count N alone, and no program looks at
it:

- broadcast (N ≤ ``_AUTO_BROADCAST_NODES``): the state is one pandas
  frame on the driver. The edges are validated and rewritten to node
  positions once. A superstep ``ray.put``s the message vector, streams
  the edges through ``map_batches`` (an exact per-batch segment combine
  by receiver) and folds the partials on the driver.
- shuffle (cluster scale): the state is a Dataset. A superstep is two
  ``agg.exchange`` calls: the edges meet the active messages only, keyed
  by sender, and each call combines its messages per receiver; the state
  then meets those partials, keyed by node, and each node's partials
  become its inbox. Only ``total``'s scalars reach the driver.

All arithmetic is integer fixed point (floor divisions of nonnegative
int64s; Python ``//`` == DuckDB ``//``), so every program gives the same
bits under either placement, any partitioning and its SQL oracle. An edge
endpoint outside ``node_ids`` raises ``ValueError`` under either
placement. Edges are ``materialize()``d up front: every program makes
many passes over them, and re-running an upstream extract pipeline on
every pass would repeat the whole read and parse each time.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd

_AUTO_BROADCAST_NODES = 2_000_000  # ≈32 MB of id+state vectors
_EDGE_BATCH = 262_144  # edges per task: vectorized kernels want big
# batches (default 1024-row batches cost ~30x in per-task overhead,
# measured by the `graph` probe in tools/probes.py)
_BACKLINK_BUCKETS = 64  # the backlink index is partitioned by dst % this

_INF = np.iinfo(np.int64).max
_IDENTITY = {"sum": 0, "min": _INF}
_UFUNC = {"sum": np.add, "min": np.minimum}


# ---------------------------------------------------------------------------
# engine: the graph, its validation and the three primitives
# ---------------------------------------------------------------------------

class _Graph:
    """Materialized edges and the node universe, placed by N."""

    def __init__(self, edges_ds, node_ids):
        import ray

        is_ds = hasattr(node_ids, "map_batches")
        n_hint = node_ids.count() if is_ds else len(node_ids)
        self.broadcast = n_hint <= _AUTO_BROADCAST_NODES
        if not self.broadcast:
            self.edges = edges_ds.map_batches(
                lambda b: pd.DataFrame({"src": b["src"].to_numpy(np.int64),
                                        "dst": b["dst"].to_numpy(np.int64)}),
                batch_format="pandas").materialize()
            self.nodes, self.n = _prepare_universe_ds(self.edges, node_ids)
            return
        ids = np.unique(node_ids.to_pandas()["node"].to_numpy(np.int64)
                        if is_ds else np.asarray(node_ids, dtype=np.int64))
        ids_ref = ray.put(ids)
        self.edges = edges_ds.map_batches(
            _positions, fn_args=(ids_ref,), batch_format="pandas",
            batch_size=_EDGE_BATCH).materialize()
        if _exact_sum(_block_sums(self.edges,
                                  lambda b: (b["si"] < 0) | (b["di"] < 0))):
            _raise_bad(edges_ds.map_batches(_unknown, fn_args=(ids_ref,),
                                            batch_format="pandas"))
        self.nodes, self.n = pd.DataFrame({"node": ids}), len(ids)

    @functools.cached_property
    def undirected(self):
        """Shuffle placement: every edge in both directions."""
        def both_ways(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"src": np.concatenate([b["src"], b["dst"]]),
                                 "dst": np.concatenate([b["dst"], b["src"]])})

        return self.edges.map_batches(both_ways,
                                      batch_format="pandas").materialize()


def _pos(ids: np.ndarray, keys) -> np.ndarray:
    """Position of each key in the sorted ``ids``, -1 where absent."""
    keys = np.asarray(keys, dtype=np.int64)
    idx = np.searchsorted(ids, keys)
    hit = idx < len(ids)
    hit[hit] = ids[idx[hit]] == keys[hit]
    return np.where(hit, idx, -1)


def _positions(b: pd.DataFrame, ids_ref) -> pd.DataFrame:
    """Broadcast edges as (si, di) node positions, -1 for an endpoint
    outside the universe (the caller raises on it)."""
    import ray

    ids = ray.get(ids_ref)
    return pd.DataFrame({"si": _pos(ids, b["src"]), "di": _pos(ids, b["dst"])})


def _endpoints(b: pd.DataFrame) -> np.ndarray:
    return np.unique(np.concatenate([b["src"].to_numpy(np.int64),
                                     b["dst"].to_numpy(np.int64)]))


def _unknown(b: pd.DataFrame, ids_ref) -> pd.DataFrame:
    import ray

    ends = _endpoints(b)
    return pd.DataFrame({"node": ends[~np.isin(ends, ray.get(ids_ref))],
                         "bad": 1})


def _raise_bad(problems) -> None:
    """Raise ``ValueError`` on the driver for the first Dataset row
    (node, bad) with bad = 1 (an edge endpoint that is not a node) or
    bad = 2 (a node listed twice)."""
    for b in problems.iter_batches(batch_format="pandas", batch_size=None):
        missing = b.loc[b["bad"] == 1, "node"]
        if len(missing):
            raise ValueError(
                f"graph op: {len(missing)} edge endpoint(s) not in the node "
                f"universe (e.g. {int(missing.iloc[0])}) — pass every node "
                f"id")
        if len(b):
            raise ValueError(
                f"graph op: {len(b)} duplicate node id(s) in the node "
                f"universe (e.g. {int(b['node'].iloc[0])})")


def _prepare_universe_ds(edges, node_ids):
    """Shuffle placement's node universe: one exchange of the edge
    endpoints with the node ids checks that every endpoint is a node and
    that a Dataset universe has no duplicate rows (raising on the
    driver, the same contract as the broadcast placement) and returns
    (distinct-node Dataset, N)."""
    import ray.data as rd

    from .agg import exchange

    if not hasattr(node_ids, "map_batches"):
        node_ids = rd.from_pandas(pd.DataFrame(
            {"node": np.unique(np.asarray(node_ids, dtype=np.int64))}))

    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": _endpoints(b)})

    def nodes(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": b["node"].to_numpy(np.int64)})

    def check(ends: pd.DataFrame, ids: pd.DataFrame) -> pd.DataFrame:
        node, n = np.unique(ids["node"].to_numpy(np.int64),
                            return_counts=True)
        ends = np.unique(ends["node"].to_numpy(np.int64))
        missing = ends[~np.isin(ends, node)]
        return pd.DataFrame({
            "node": np.r_[node, missing],
            "bad": np.r_[np.where(n > 1, 2, 0),
                         np.ones(len(missing), dtype=np.int64)]})

    out = exchange([edges.map_batches(endpoints, batch_format="pandas"),
                    node_ids.map_batches(nodes, batch_format="pandas")],
                   ["node", "node"], check)
    _raise_bad(out.map_batches(lambda b: b[b["bad"] != 0],
                               batch_format="pandas"))
    return out.select_columns(["node"]), out.count()


def _combine(keys, vals, combine: str) -> pd.DataFrame:
    """Exact per-key reduce of int64 messages → DataFrame(node, __m), one
    row per distinct key (``ufunc.reduceat`` over key-sorted runs; a
    bincount would go through float64 and lose exactness past 2^53)."""
    keys = np.asarray(keys, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.int64)
    if len(keys) == 0:
        return pd.DataFrame({"node": keys, "__m": vals})
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return pd.DataFrame({"node": keys[starts],
                         "__m": _UFUNC[combine].reduceat(vals, starts)})


def _scatter(b: pd.DataFrame, msg_ref, along: str,
             combine: str) -> pd.DataFrame:
    """Broadcast superstep on one edge batch: each sender's message by
    position, identity messages dropped, combined by receiver."""
    import ray

    msg = ray.get(msg_ref)  # zero-copy view from the object store
    send, recv = b["si"].to_numpy(), b["di"].to_numpy()
    if along == "in":
        send, recv = recv, send
    elif along == "both":
        send, recv = np.r_[send, recv], np.r_[recv, send]
    val = msg[send]
    keep = val != _IDENTITY[combine]
    return _combine(recv[keep], val[keep], combine)


def superstep(g: _Graph, state, msg_col: str, along: str, combine: str):
    """``state`` plus an ``inbox`` column: ``state[msg_col]`` sent along
    every edge (``along`` ∈ out | in | both) and combined per receiver
    (``combine`` ∈ sum | min), the identity where nothing arrived."""
    ident = _IDENTITY[combine]
    if g.broadcast:
        import ray

        msg = ray.put(state[msg_col].to_numpy(np.int64))
        parts = g.edges.map_batches(_scatter, fn_args=(msg, along, combine),
                                    batch_format="pandas",
                                    batch_size=_EDGE_BATCH)
        inbox = np.full(g.n, ident, dtype=np.int64)
        for b in parts.iter_batches(batch_format="pandas", batch_size=None):
            _UFUNC[combine].at(inbox, b["node"].to_numpy(np.int64),
                               b["__m"].to_numpy(np.int64))
        return state.assign(inbox=inbox)

    from .agg import exchange

    def active(s: pd.DataFrame) -> pd.DataFrame:
        m = s[msg_col].to_numpy(np.int64)
        sends = m != ident
        return pd.DataFrame({"node": s["node"].to_numpy(np.int64)[sends],
                             "__m": m[sends]})

    edges, send, recv = ((g.undirected, "src", "dst") if along == "both"
                         else (g.edges, "src", "dst") if along == "out"
                         else (g.edges, "dst", "src"))

    def deliver(e: pd.DataFrame, m: pd.DataFrame) -> pd.DataFrame:
        """One partial per (call, receiver)."""
        # an empty edge side arrives with its key column only
        j = e.reindex(columns=["src", "dst"]).merge(m, left_on=send,
                                                    right_on="node")
        return _combine(j[recv], j["__m"], combine)

    sent = exchange([edges, state.map_batches(active, batch_format="pandas")],
                    [send, "node"], deliver)
    if sent.count() == 0:  # nothing was sent
        return update(g, state, lambda s: s.assign(inbox=ident))

    def attach(s: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
        """Each node's partials combined into its inbox (position -1,
        no partial, reads the appended identity)."""
        got = _combine(p["node"], p["__m"], combine)
        pos = _pos(got["node"].to_numpy(), s["node"])
        return s.assign(inbox=np.r_[got["__m"].to_numpy(np.int64),
                                    ident][pos])

    return exchange([state, sent], ["node", "node"], attach)


def _hi_lo(v) -> pd.DataFrame:
    """Σv as two int64 sums that cannot overflow below 2^31 rows
    (|v >> 32| < 2^31 and v & 0xFFFFFFFF < 2^32)."""
    v = np.asarray(v, dtype=np.int64)
    return pd.DataFrame({"hi": [int((v >> 32).sum())],
                         "lo": [int((v & 0xFFFFFFFF).sum())]})


def _block_sums(ds, fn):
    return (ds.map_batches(lambda b: _hi_lo(fn(b)), batch_format="pandas")
            .iter_batches(batch_format="pandas", batch_size=None))


def _exact_sum(parts) -> int:
    return sum((int(hi) << 32) + int(lo)
               for p in parts for hi, lo in zip(p["hi"], p["lo"]))


def total(g: _Graph, state, fn) -> int:
    """Exact Python-int sum of ``fn(state)`` (one int64 or bool per
    node)."""
    return _exact_sum([_hi_lo(fn(state))] if g.broadcast
                      else _block_sums(state, fn))


def update(g: _Graph, state, fn):
    """``fn`` (pandas frame → frame, row-local) over every node: on the
    driver frame in broadcast, ``map_batches`` over the state Dataset in
    shuffle."""
    if g.broadcast:
        return fn(state)
    return state.map_batches(fn, batch_format="pandas").materialize()


def _frame(g: _Graph, state, cols: list[str]) -> pd.DataFrame:
    """The final state as a node-sorted int64 frame of ``cols``."""
    if not g.broadcast:
        state = state.to_pandas().sort_values("node")
    return state.reindex(columns=cols).astype(np.int64).reset_index(
        drop=True)


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

def pagerank(edges_ds, node_ids, *, num_iters: int = 5,
             scale: int = 10**12) -> pd.DataFrame:
    """PageRank (Page et al., 1999) over Dataset(src:int64, dst:int64) →
    DataFrame(node, rank_fp).

    ``node_ids``: the node universe (list/ndarray, or a Dataset with a
    ``node`` column), required because isolated nodes appear in no edge.
    ``rank_fp`` is the fixed-point rank (sum ≈ ``scale``); divide by
    ``scale`` for the conventional probabilities. Recurrence (d = 0.85):

        N = |nodes|,  BASE = scale // N,  r0[v] = BASE
        share[u]   = r[u] // outdeg[u]            (outdeg > 0)
        contrib[v] = Σ share[u] over edges u→v
        dang       = Σ r[u] over outdeg-0 nodes   (dangling mass)
        r'[v] = (15*BASE + 85*(contrib[v] + dang // N)) // 100
    """
    g = _Graph(edges_ds, node_ids)
    n, base = g.n, scale // g.n

    def ranked(s: pd.DataFrame, r) -> pd.DataFrame:
        deg = s["deg"].to_numpy(np.int64)
        return s[["node", "deg"]].assign(
            r=r, share=np.where(deg > 0, r // np.maximum(deg, 1), 0))

    # out-degree: every node sends 1 against the edge direction
    s = update(g, g.nodes, lambda s: s.assign(one=1))
    s = update(g, superstep(g, s, "one", "in", "sum"), lambda s: ranked(
        s.assign(deg=s["inbox"]), np.full(len(s), base, dtype=np.int64)))
    for _ in range(num_iters):
        add = total(g, s, lambda s: s["r"].where(s["deg"] == 0, 0)) // n
        s = update(g, superstep(g, s, "share", "out", "sum"),
                   lambda s: ranked(s, (15 * base + 85 * (
                       s["inbox"].to_numpy(np.int64) + add)) // 100))
    return _frame(g, s, ["node", "r"]).rename(columns={"r": "rank_fp"})


# rounds connected_components runs before it gives up: a bound on the
# largest component's diameter
_CC_MAX_ITERS = 50


def connected_components(edges_ds, node_ids) -> pd.DataFrame:
    """Undirected connected components → DataFrame(node, component), where
    ``component`` is the minimum node id of the component (the same
    min-label convention as dedup.py's union-find survivors).

    Hash-min label propagation (Rastogi et al., ICDE'13 family): every
    node starts labeled with itself; each round a node adopts the min
    label among itself and its neighbors; converged when a round changes
    nothing. Only nodes whose label just dropped send it on (a neighbor
    already holds any label that did not change), and rounds ≤ graph
    diameter. This is the distributed scale path for near-dup
    clustering: dedup.py's driver union-find is right while verified
    pairs ≪ corpus, and a pair set that no longer fits the driver
    propagates here. Raises ``RuntimeError`` if ``_CC_MAX_ITERS`` rounds
    do not converge."""
    g = _Graph(edges_ds, node_ids)

    def adopt(s: pd.DataFrame) -> pd.DataFrame:
        label = s["label"].to_numpy(np.int64)
        new = np.minimum(label, s["inbox"].to_numpy(np.int64))
        return s[["node"]].assign(label=new,
                                  msg=np.where(new < label, new, _INF))

    s = update(g, g.nodes, lambda s: s.assign(label=s["node"], msg=s["node"]))
    for _ in range(_CC_MAX_ITERS):
        s = update(g, superstep(g, s, "msg", "both", "min"), adopt)
        if total(g, s, lambda s: s["msg"] != _INF) == 0:
            return (_frame(g, s, ["node", "label"])
                    .rename(columns={"label": "component"}))
    raise RuntimeError(
        f"connected_components did not converge within {_CC_MAX_ITERS} "
        f"rounds (a component's diameter exceeds it); returning partial "
        f"labels would be silently wrong")


def _hits_normalize(raw: np.ndarray, tot: int, scale: int) -> np.ndarray:
    """Exact sum-normalization raw · scale // tot (zeros if tot = 0):
    int64 while tot · scale < 2^63 (every raw ≤ tot), exact Python-int
    math past it — same answers."""
    if tot == 0:
        return np.zeros(len(raw), dtype=np.int64)
    if tot <= (2**63 - 1) // scale:
        return (raw * scale) // tot
    return np.fromiter((int(x) * scale // tot for x in raw),
                       dtype=np.int64, count=len(raw))


def hits(edges_ds, node_ids, *, num_iters: int = 5,
         scale: int = 10**6) -> pd.DataFrame:
    """HITS hubs-and-authorities (Kleinberg, JACM'99) over
    Dataset(src:int64, dst:int64) → DataFrame(node, auth_fp, hub_fp) —
    the query-independent companion signal to :func:`pagerank` for
    frontier prioritization (a high-hub page's outlinks are worth
    admitting even when the page itself ranks low). Recurrence:

        h0[v]  = scale // N
        a'[v]  = Σ h[u]  over edges u→v          (authority from in-links)
        a[v]   = a'[v] · scale // Σ a'           (sum-normalized, 0 if Σ=0)
        h'[u]  = Σ a[v]  over edges u→v          (hub from out-links)
        h[u]   = h'[u] · scale // Σ h'

    Sum-normalization (not the conventional L2) keeps every step in
    exact integers; it rescales both vectors identically, so the
    *ranking* matches the L2 variant at every iteration."""
    g = _Graph(edges_ds, node_ids)
    h0 = scale // g.n
    s = update(g, g.nodes, lambda s: s.assign(a=0, h=h0))
    for _ in range(num_iters):
        for send, along, out in (("h", "out", "a"), ("a", "in", "h")):
            s = superstep(g, s, send, along, "sum")
            tot = total(g, s, lambda s: s["inbox"])
            s = update(g, s, lambda s: s[["node", "a", "h"]].assign(**{
                out: _hits_normalize(s["inbox"].to_numpy(np.int64), tot,
                                     scale)}))
    return (_frame(g, s, ["node", "a", "h"])
            .rename(columns={"a": "auth_fp", "h": "hub_fp"}))


def bfs_distance(edges_ds, node_ids, seeds, *,
                 max_depth: int = 8) -> pd.DataFrame:
    """Multi-source directed BFS → DataFrame(node, dist): the shortest
    hop count from the NEAREST seed, for every node reachable within
    ``max_depth`` hops (unreached nodes are omitted). The crawl-native
    graph question — "how many link hops from the seed list is this
    page" — and the level-synchronous pattern behind reachability,
    influence radius and seed-set coverage audits.

    Level-synchronous BFS is exact by construction (a node is first
    reached at its true shortest distance). Level d sends d + 1 from the
    frontier only, so the shuffle placement stages just the frontier
    each level; rounds ≤ min(max_depth, eccentricity of the seed set).
    Seeds outside ``node_ids`` are ignored."""
    g = _Graph(edges_ds, node_ids)
    seed_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))

    def level(s: pd.DataFrame, dist, d: int) -> pd.DataFrame:
        return s[["node"]].assign(dist=dist,
                                  msg=np.where(dist == d, d + 1, _INF))

    s = update(g, g.nodes, lambda s: level(
        s, np.where(np.isin(s["node"], seed_arr), 0, _INF), 0))
    for d in range(1, max_depth + 1):
        if total(g, s, lambda s: s["msg"] != _INF) == 0:
            break
        s = update(g, superstep(g, s, "msg", "out", "min"), lambda s: level(
            s, np.minimum(s["dist"].to_numpy(np.int64),
                          s["inbox"].to_numpy(np.int64)), d))
    s = update(g, s, lambda s: s[s["dist"] != _INF])
    return _frame(g, s, ["node", "dist"])


# ---------------------------------------------------------------------------
# backlink index (reverse link graph, staged + partition-pruned lookup)
# ---------------------------------------------------------------------------

def build_backlink_index(edges_ds, index_dir: str) -> None:
    """Stage the REVERSE link graph as bucket-partitioned Parquet postings:
    one (dst, src) row per edge, hive-partitioned by
    ``dst_bucket = dst % _BACKLINK_BUCKETS``, so a who-links-here lookup
    reads only its targets' partitions. Anchor-graph lookups (spam
    analysis, link-based labels, authority propagation) are per-target
    at serving time; scanning the full edge list per query is the
    anti-pattern this staging removes.

    Cached behind a _DONE marker; built atomically via a staged temp dir
    + rename (raycrawl.staging) so concurrent builders never expose a
    partial index."""
    from ..staging import atomic_build_dir, is_complete

    if is_complete(index_dir):
        return

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        dst = b["dst"].to_numpy(np.int64)
        return pd.DataFrame({
            "dst": dst, "src": b["src"].to_numpy(np.int64),
            "dst_bucket": (dst % _BACKLINK_BUCKETS).astype("int32")})

    atomic_build_dir(
        index_dir,
        lambda tmp: edges_ds.map_batches(add_bucket, batch_format="pandas")
        .write_parquet(tmp, partition_cols=["dst_bucket"]))


def backlinks(index_dir: str, targets):
    """Postings lookup: Dataset(dst, src) of every in-link of ``targets``,
    reading only the target buckets' partitions."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    targets = sorted({int(t) for t in targets})
    files: list[str] = []
    for b in sorted({t % _BACKLINK_BUCKETS for t in targets}):
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


def anchor_text_index(pages_ds):
    """PAGES (url, html) → (dst_url, n_anchors, anchor_texts): every
    page's outgoing <a href> anchors, aggregated per TARGET — the anchor-
    text corpus behind link-based labels, retrieval training pairs and
    spam features (Craswell et al. 2001's anchor evidence; every major
    search stack materializes this table).

    Shape: stateless ``map_batches`` parse (one DOM pass per page, href
    normalized against the page url) → ``agg.exchange`` keyed by
    dst_url (never one Ray group per target — targets are unbounded) →
    per-target aggregate: ``n_anchors`` = number of
    in-anchors, ``anchor_texts`` = ' | '-joined sorted DISTINCT labels
    (deterministic under any partitioning / arrival order)."""
    from ..html.dom import parse_html
    from ..urlnorm import normalize_url
    from .agg import exchange

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

    def per_target(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("dst_url")["anchor_text"].agg(
            n_anchors="size",
            anchor_texts=lambda t: " | ".join(sorted(set(t)))).reset_index()

    rows = pages_ds.map_batches(anchors, batch_format="pandas")
    return exchange([rows], ["dst_url"], per_target)
