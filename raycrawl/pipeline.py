"""Wave-synchronous BFS crawl over a Parquet page corpus (SURVEY.md §3.2).

Ray shape per wave:

    frontier shards --pop (depth,seq) order--> wave
    wave -> persistent WaveWorker actor pool:
              corpus fetch (CorpusReader: the wave's host-bucket files,
                is_in on each file's cached url column, only the matching
                row groups decoded, the previous two calls' reused; J4)
              -> WaveExtractor  # extract + filter links
         -> write wave Parquet (resume point)
         -> small link projection to driver
         -> two-phase admission: check_batch, then one advance per shard
            (insert + wave-boundary snapshot + stats + next wave's pops
            + a peek at the wave after, whose pages the pool extracts
            while the driver admits the next wave)
    checkpoint (frontier snapshots + manifest)

Determinism: pops are merged in (depth, seq) order; candidate links are
enumerated (parent_seq, document-position)-major; global admission seqs are
assigned in that order — the SURVEY.md Q1-Q5 resolutions. The admission
sequence is invariant to wave size because pop order is seq order and waves
concatenate in seq order.

Driver work per wave is O(popped + candidate links) — bounded by
``wave_budget`` × fan-out, never O(corpus).
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import json
import math
import os
import threading
import time
import uuid
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .extract import (_collector_paused, decode_html, error_row, extract_page,
                      page_row, rows_table)
from .frontier import FrontierShard
from .links import LinkFilter
from .schema import CRAWL_RESULT, EXTRACTED, SEEN
from .urlnorm import canonicalize, host_of, host_shard, normalize_url, url_key


@dataclasses.dataclass
class CrawlConfig:
    seed_url: "str | list[str]"
    max_depth: int = 3
    max_pages: int = 100
    exclude_patterns: Optional[list[str]] = None
    include_patterns: Optional[list[str]] = None
    respect_robots: bool = True
    seed_host_only_robots: bool = True  # reference quirk (link_extractor.py:30-46)
    only_main: bool = True
    num_shards: int = 4
    wave_budget: int = 256          # max pops per wave across all shards
    politeness_rate: float = math.inf   # pops per host per wave
    politeness_burst: float = math.inf
    politeness_wave_seconds: float = 1.0  # virtual seconds per wave (Crawl-delay mapping)
    extract_concurrency: int = 4
    batch_size: int = 32
    out_dir: Optional[str] = None   # results + checkpoints; tmp dir when None
    resume: bool = False
    exact_shadow: bool = True
    filter_capacity: int = 1 << 16
    max_waves: Optional[int] = None  # stop after N waves (checkpoint test hook)
    # sink='warc': each fetch task ALSO archives its fetched pages
    # (url, warc_ts, raw html) as a Common-Crawl-layout .warc.gz under
    # <out_dir>/warc/wave=NNNNNN/part-NNNN.warc.gz — one gzip member per
    # record, sha1 payload digests, byte-deterministic (wave task packing
    # is deterministic). Archive semantics follow real crawlers: every
    # FETCHED page is archived, whether or not extraction succeeds.
    sink: Optional[str] = None
    # best-first frontier: pop order (priority_fn(url), seq) instead of the
    # BFS (depth, seq). None = BFS, exactly the reference semantics.
    priority_fn: "Optional[callable]" = None
    # incremental checkpointing: a FULL frontier snapshot (filter bytes,
    # ∝ capacity) every K waves, per-wave DELTAS (∝ that wave's
    # admissions) in between; restore replays full + delta chain.
    snapshot_full_every: int = 8


# WaveExtractor's output: the crawl result's page columns, then each page's
# filtered links with their canonical SHA-1 keys and hosts
WAVE_COLUMNS = pa.schema(
    [EXTRACTED.field(n) for n in (
        "url", "markdown", "title", "language", "status_code", "json_ld",
        "open_graph", "twitter_card", "meta_data", "links")]
    + [pa.field("link_keys", pa.list_(pa.binary())),
       pa.field("link_hosts", pa.list_(pa.string()))])


def wave_table(buf: bytes) -> pa.Table:
    """A ``WaveWorker.process`` result, one Arrow IPC stream, as a table.
    The table's columns point into ``buf``: nothing is copied. On one vCPU
    an actor took a median 3.9 ms to return a 32-row ``WAVE_COLUMNS``
    table through Ray's own Arrow table reducer, 1.4 ms as a ``pa.Buffer``
    of the stream and 1.1 ms as its ``bytes``, decode included."""
    return pa.ipc.open_stream(buf).read_all()


class WaveExtractor:
    """Crawl batch kernel: fetched wave rows → ``WAVE_COLUMNS``. The page
    columns come from the same row code as the bulk ``PageExtractor``;
    ``links`` are the cleaned page's links that pass the crawl's filter
    (compiled once per actor, ST7).

    Each filtered link also carries its canonical SHA-1 key and host,
    computed here in the (parallel) worker pool so the driver's admission
    loop does no per-link URL parsing or hashing — only rank assignment
    and shard routing."""

    def __init__(self, base_domain: str, exclude: Optional[list[str]],
                 include: Optional[list[str]], only_main: bool) -> None:
        self.link_filter = LinkFilter(base_domain, exclude, include)
        self.only_main = only_main

    def __call__(self, batch: pa.Table) -> pa.Table:
        # ``links`` is replaced by the filtered ``crawl_links``, so the
        # full-page ``links`` list extract_page builds is thrown away here.
        # Its hrefs outside the main content are 8.5% of the normalize_url
        # calls on the skewed benchmark corpus (740 of 8,698), but with
        # the plain-href fast paths they cost ~0.6 ms of a ~1 s kernel
        # pass. It stays: extract_page's whole return dict is one
        # contract, compared as a whole by the benchmark's traced replay,
        # and a crawl-only variant would fork the kernel.
        rows: list[dict] = []
        with _collector_paused():
            for url, html in zip(batch.column("url").to_pylist(),
                                 batch.column("html").to_pylist()):
                try:
                    res = extract_page(url, decode_html(html),
                                       only_main=self.only_main)
                    links = [u for u in res["crawl_links"]
                             if self.link_filter(u)]
                    canons = [canonicalize(u) for u in links]
                    row = {**page_row(res), "links": links,
                           "link_keys": [url_key(c) for c in canons],
                           "link_hosts": [host_of(c) for c in canons]}
                except Exception as exc:
                    row = error_row(exc, link_keys=[], link_hosts=[])
                rows.append(row)
        return rows_table(rows, WAVE_COLUMNS,
                          url=batch.column("url").cast(pa.string()))


@ray.remote(max_restarts=2, max_task_retries=2)
class WaveWorker:
    """Persistent fetch+extract worker, reused across all waves.

    The crawl loop is iterative, so spinning a fresh ``map_batches`` actor
    pool (and Dataset execution) per wave would pay actor startup and plan
    overhead every round — this is the documented case where the Dataset API
    can't express the semantics (long-lived per-wave state) and raw actors
    are the right Ray tool. Each ``process`` call reads only the wave URLs'
    rows from its corpus bucket files (a ``CorpusReader``) and runs
    ``WaveExtractor`` on them.

    Fault tolerance: the only state a worker keeps between calls is its
    current crawl's ``CorpusReader``, a cache that a restarted worker
    rebuilds, so Ray restarts workers transparently
    (max_restarts/max_task_retries); frontier shards are stateful — their
    recovery path is the per-wave checkpoint (resume=True).
    """

    def __init__(self, base_domain: str, exclude: Optional[list[str]],
                 include: Optional[list[str]], only_main: bool) -> None:
        self.extractor = WaveExtractor(base_domain, exclude, include, only_main)
        # (crawl token, that crawl's reader); a pooled worker serves
        # crawl after crawl, and the corpus may change in between
        self._fetch: Optional[tuple[str, CorpusReader]] = None

    def ping(self) -> bool:
        return True

    def _drop_fetch(self) -> Optional[tuple[str, "CorpusReader"]]:
        fetch, self._fetch = self._fetch, None
        if fetch is not None:
            fetch[1].close()
        return fetch

    def process(self, groups: list[tuple[list[str], list[str]]], token: str,
                warc_out: Optional[str] = None) -> Optional[bytes]:
        """groups: [(bucket_paths, urls), ...] — one task may span several
        corpus buckets so the driver can pack a wave into exactly
        pool-size equal tasks (per-bucket chunking quantized waves into
        uneven worker rounds — the round-4 crawl-vs-bulk utilization gap).
        Each bucket's files are searched for only ITS urls.

        ``token`` names the crawl: calls with the same token share one
        ``CorpusReader`` (open files, url columns, the previous two calls'
        decoded row groups); a new token drops the old crawl's.

        ``warc_out``: archive this task's fetched rows as one
        Common-Crawl-layout .warc.gz (crawl sink='warc') — written here in
        the worker so the sink parallelizes with extraction.

        Returns the task's ``WAVE_COLUMNS`` rows as one Arrow IPC stream
        (read it with ``wave_table``), or None when no url was found."""
        if self._fetch is None or self._fetch[0] != token:
            self._drop_fetch()
            self._fetch = (token, CorpusReader())
        fetched = self._fetch[1].read(
            groups, ["url", "warc_ts", "html"] if warc_out else ["url", "html"])
        if fetched is None:
            return None
        if warc_out is not None:
            from .warc import write_warc_pages

            write_warc_pages(fetched, warc_out)
        table = self.extractor(fetched.select(["url", "html"]))
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, table.schema) as writer:
            writer.write_table(table)
        return sink.getvalue().to_pybytes()

    def end_crawl(self, token: str) -> dict[str, int]:
        """Crawl ``token``'s fetch counters (zeros if this worker holds none
        of its state); drops the fetch state either way."""
        fetch = self._drop_fetch()
        if fetch is None or fetch[0] != token:
            return dict.fromkeys(FETCH_COUNTERS, 0)
        return fetch[1].counters


def _corpus_files(corpus_path: str) -> tuple[dict[Optional[int], list[str]], Optional[int]]:
    """Map host_bucket → parquet files plus the partitioning modulus
    (None = unpartitioned corpus)."""
    if os.path.isfile(corpus_path):
        return {None: [corpus_path]}, None
    out: dict[Optional[int], list[str]] = {}
    bucket_dirs = glob.glob(os.path.join(corpus_path, "host_bucket=*"))
    meta_path = os.path.join(corpus_path, "_corpus_meta.json")
    if bucket_dirs and os.path.exists(meta_path):
        with open(meta_path) as f:
            num_buckets = json.load(f)["num_buckets"]
        for d in bucket_dirs:
            b = int(d.rsplit("=", 1)[1])
            out[b] = sorted(glob.glob(os.path.join(d, "*.parquet")))
        return out, num_buckets
    out[None] = sorted(glob.glob(os.path.join(corpus_path, "**", "*.parquet"),
                                 recursive=True))
    return out, None


def _by_bucket(urls: list[str],
               num_buckets: Optional[int]) -> dict[Optional[int], list[str]]:
    """Group urls by corpus host bucket (None = unpartitioned corpus)."""
    if not num_buckets:
        return {None: urls}
    out: dict[Optional[int], list[str]] = {}
    for u in urls:
        out.setdefault(host_shard(host_of(u), num_buckets), []).append(u)
    return out


FETCH_COUNTERS = ("row_groups_decoded", "row_groups_reused", "rows_decoded",
                  "pages_fetched")


class CorpusReader:
    """Corpus rows by url. Each parquet file is opened once, and its
    ``url`` column and row-group offsets are read once; a ``read`` finds
    the asked urls with ``is_in`` on that column and decodes only the row
    groups holding them. Row groups the previous two ``read`` calls used
    are reused, since nearby reads keep hitting the same bucket files (a
    hot host's above all) and a crawl alternates a wave's predicted read
    with the read of the pops the prediction missed. The cache assumes
    the files do not change, so a reader must not outlive one crawl.

    ``counters`` sum the row groups decoded and reused, the rows decoded
    and the pages (rows) returned."""

    def __init__(self) -> None:
        # path -> (open file, its url column, first row of each row group)
        self._files: dict[str, tuple[pq.ParquetFile, pa.ChunkedArray,
                                     np.ndarray]] = {}
        # (path, row group, columns) -> decoded table, for the last read
        # and the one before it
        self._decoded: dict[tuple[str, int, tuple[str, ...]], pa.Table] = {}
        self._older: dict[tuple[str, int, tuple[str, ...]], pa.Table] = {}
        self.counters = dict.fromkeys(FETCH_COUNTERS, 0)

    def close(self) -> None:
        for pf, _, _ in self._files.values():
            pf.close()
        self._files.clear()
        self._decoded.clear()
        self._older.clear()

    def _open(self, path: str) -> tuple[pq.ParquetFile, pa.ChunkedArray,
                                        np.ndarray]:
        f = self._files.get(path)
        if f is None:
            pf = pq.ParquetFile(path)
            sizes = [pf.metadata.row_group(i).num_rows
                     for i in range(pf.num_row_groups)]
            starts = np.cumsum([0] + sizes[:-1])
            f = self._files[path] = (
                pf, pf.read(columns=["url"]).column("url"), starts)
        return f

    def read(self, groups: list[tuple[list[str], list[str]]],
             columns: list[str]) -> Optional[pa.Table]:
        """The corpus rows of ``groups`` = [(parquet paths, urls), ...]:
        for each path, the rows whose url is among its group's urls, in
        file order — what ``pq.read_table(path, columns=columns,
        filters=[("url", "in", urls)])`` returns, concatenated in
        ``groups`` order. None when no row matches."""
        older, previous = self._older, self._decoded
        self._older, self._decoded = previous, {}
        cols = tuple(columns)
        c = self.counters
        tables = []
        for paths, urls in groups:
            wanted = pa.array(urls, pa.string())
            for path in paths:
                pf, url_col, starts = self._open(path)
                hits = pc.indices_nonzero(
                    pc.is_in(url_col, value_set=wanted)).to_numpy()
                if not len(hits):
                    continue
                rgs = np.searchsorted(starts, hits, side="right") - 1
                cuts = [0, *(np.flatnonzero(np.diff(rgs)) + 1), len(hits)]
                for lo, hi in zip(cuts, cuts[1:]):
                    rg = int(rgs[lo])
                    key = (path, rg, cols)
                    t = self._decoded.get(key)
                    if t is None:
                        t = previous.get(key, older.get(key))
                    if t is None:
                        t = pf.read_row_group(rg, columns=columns)
                        c["row_groups_decoded"] += 1
                        c["rows_decoded"] += t.num_rows
                    else:
                        c["row_groups_reused"] += 1
                    self._decoded[key] = t
                    tables.append(t.take(hits[lo:hi] - starts[rg]))
                c["pages_fetched"] += len(hits)
        return pa.concat_tables(tables) if tables else None


# process-global persistent actor pools (the reference's browser-pool
# shape, browser_manager.py: browsers outlive jobs; crawls only borrow
# them). Workers hold no per-crawl state, so reuse only skips actor spawn
# + import cost on repeat jobs; they are keyed by the constructor args
# that define their behavior. Frontier shards are generic (reset()
# reinitializes them per crawl). One crawl at a time per process — the
# same contract as the reference's global pool.
_WORKER_POOLS: dict[tuple, list] = {}
_SHARD_POOL: list = []


def _prune_dead(pool: list) -> None:
    """Keep the pooled actors that answer a ping. A killed actor fails the
    get; a handle from a shut-down Ray session already fails the submit."""
    pings = []
    for a in pool:
        try:
            pings.append((a, a.ping.remote()))
        except Exception:
            pass
    alive = []
    for a, ref in pings:
        try:
            ray.get(ref, timeout=10)
            alive.append(a)
        except Exception:
            pass
    pool[:] = alive


def _get_worker_pool(key: tuple, n: int, ctor_args: tuple) -> list:
    pool = _WORKER_POOLS.setdefault(key, [])
    _prune_dead(pool)  # drop actors that died or belong to a past session
    while len(pool) < n:
        pool.append(WaveWorker.remote(*ctor_args))
    return pool[:n]


def _get_shard_pool(n: int, shard_kwargs: dict) -> list:
    _prune_dead(_SHARD_POOL)
    while len(_SHARD_POOL) < n:
        _SHARD_POOL.append(FrontierShard.remote(len(_SHARD_POOL)))
    shards = _SHARD_POOL[:n]
    ray.get([s.reset.remote(i, **shard_kwargs) for i, s in enumerate(shards)])
    return shards


@dataclasses.dataclass
class CrawlOutcome:
    results_dir: str
    seen_dir: str
    stats: dict[str, Any]

    def results(self) -> pa.Table:
        files = sorted(glob.glob(os.path.join(self.results_dir, "wave=*", "*.parquet")))
        if not files:
            return CRAWL_RESULT.empty_table()
        t = pa.concat_tables([pq.read_table(f) for f in files])
        return t.sort_by([("seq", "ascending")])

    def seen(self) -> pa.Table:
        files = sorted(glob.glob(os.path.join(self.seen_dir, "wave=*", "*.parquet")))
        if not files:
            return SEEN.empty_table()
        return pa.concat_tables([pq.read_table(f) for f in files]).sort_by(
            [("seq", "ascending")]
        )


def _code_fingerprint(fn) -> str:
    """Identity hash of a priority function's BEHAVIOR, not just its name:
    two lambdas defined at the same site share a __qualname__, and a
    closure's behavior depends on its captured values — qualname alone
    would let a changed priority_fn silently resume the old fn's heap
    (ADVICE r4). Hashes co_code + co_consts + captured cell values
    (repr'd; unhashable/unreprable cells degrade to their type name)."""
    import hashlib

    code = getattr(fn, "__code__", None)
    if code is None:  # e.g. a callable object — fall back to repr of type
        return hashlib.sha1(repr(type(fn)).encode()).hexdigest()[:8]
    h = hashlib.sha1(code.co_code)
    h.update(repr(code.co_consts).encode())
    for cell in (fn.__closure__ or ()):
        try:
            h.update(repr(cell.cell_contents).encode())
        except Exception:
            h.update(type(cell.cell_contents).__name__.encode())
    return h.hexdigest()[:8]


def crawl(corpus_path: str, cfg: CrawlConfig) -> CrawlOutcome:
    import hashlib
    import shutil

    t0 = time.time()
    # sha1 (not PYTHONHASHSEED-salted hash()) so resume=True with the default
    # out_dir finds the previous run's checkpoint across processes. The
    # priority mode is part of the identity (ADVICE r3): resuming a BFS
    # checkpoint into a priority crawl would yield a hybrid pop order
    # (heap entries keep priorities computed by the old fn) — a different
    # priority_fn must land in a different default out_dir.
    prio_tag = ("bfs" if cfg.priority_fn is None else
                f"{cfg.priority_fn.__module__}.{cfg.priority_fn.__qualname__}"
                f".{_code_fingerprint(cfg.priority_fn)}")
    cfg_key = hashlib.sha1(
        f"{corpus_path}|{cfg.seed_url}|{cfg.max_depth}|{cfg.max_pages}"
        f"|{prio_tag}".encode()
    ).hexdigest()[:16]
    out_dir = cfg.out_dir or f"/tmp/raycrawl_run/{cfg_key}"
    results_dir = os.path.join(out_dir, "results")
    seen_dir = os.path.join(out_dir, "seen")
    ckpt_dir = os.path.join(out_dir, "checkpoint")
    warc_dir = os.path.join(out_dir, "warc")
    if not cfg.resume:
        # a fresh run must not concatenate stale wave dirs from a longer
        # previous run into its results/seen output
        for d in (results_dir, seen_dir, ckpt_dir, warc_dir):
            shutil.rmtree(d, ignore_errors=True)
    for d in (results_dir, seen_dir, ckpt_dir):
        os.makedirs(d, exist_ok=True)

    seed_urls = ([cfg.seed_url] if isinstance(cfg.seed_url, str)
                 else list(cfg.seed_url))
    seeds = [normalize_url(u, u) for u in seed_urls]
    seed_hosts = [host_of(u) for u in seeds]
    seed_host = seed_hosts[0]
    # the reference's seed-host-only robots quirk only makes sense for one
    # seed; multi-seed runs use proper per-host rules
    seed_host_only = cfg.seed_host_only_robots and len(seeds) == 1
    S = cfg.num_shards
    shard_kwargs = dict(
        capacity=cfg.filter_capacity,
        exact_shadow=cfg.exact_shadow,
        politeness_rate=cfg.politeness_rate,
        politeness_burst=cfg.politeness_burst,
        wave_seconds=cfg.politeness_wave_seconds,
        seed_host_only=seed_host_only,
        seed_host=seed_host,
        respect_robots=cfg.respect_robots,
        priority_fn=cfg.priority_fn,
    )
    shards = _get_shard_pool(S, shard_kwargs)
    pool_key = (tuple(sorted(seed_hosts)), tuple(cfg.exclude_patterns or ()),
                tuple(cfg.include_patterns or ()), cfg.only_main)
    workers = _get_worker_pool(
        pool_key, cfg.extract_concurrency,
        (frozenset(seed_hosts), cfg.exclude_patterns, cfg.include_patterns,
         cfg.only_main))
    files_by_bucket, num_buckets = _corpus_files(corpus_path)
    # names this crawl's fetch state on the workers (see WaveWorker.process)
    fetch_token = uuid.uuid4().hex

    # robots preload: one targeted read of https://host/robots.txt rows.
    # seed-host-only quirk mode loads the seed's rules into every shard.
    if cfg.respect_robots:
        robots_urls = [f"https://{h}/robots.txt" for h in dict.fromkeys(seed_hosts)]
        with contextlib.closing(CorpusReader()) as reader:
            t = reader.read(
                [(files_by_bucket.get(b, []), urls) for b, urls in
                 _by_bucket(robots_urls, num_buckets).items()], ["url", "text"])
        bodies = ({} if t is None else
                  dict(zip(map(host_of, t.column("url").to_pylist()),
                           t.column("text").to_pylist())))
        if seed_host_only:
            body = bodies.get(seed_host)
            ray.get([s.load_robots.remote({seed_host: body}) for s in shards])
        else:
            per_shard: dict[int, dict] = {}
            for h in dict.fromkeys(seed_hosts):
                per_shard.setdefault(host_shard(h, S), {})[h] = bodies.get(h)
            ray.get([shards[sid].load_robots.remote(b)
                     for sid, b in per_shard.items()])

    # wave state (driver side): next seq + output manifests
    wave = 0
    next_seq = 0
    pages_success = 0
    pages_failed = 0
    manifest_path = os.path.join(ckpt_dir, "manifest.json")

    # incremental-snapshot chain bookkeeping: the latest FULL generation
    # plus the ordered delta generations since it (VERDICT r4 item 5)
    last_full_gen: Optional[str] = None
    delta_chain: list[str] = []

    if cfg.resume and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            m = json.load(f)
        wave = m["wave"] + 1
        next_seq = m["next_seq"]
        pages_success = m["pages_success"]
        pages_failed = m["pages_failed"]
        # the manifest names its snapshot generations, so a crash between
        # snapshot write and manifest rename can never pair a stale manifest
        # with newer snapshots (ADVICE crash-atomicity fix). Restore = the
        # full base, then each delta generation in chain order.
        last_full_gen = m.get("full_gen", m.get("gen", ""))
        delta_chain = list(m.get("delta_gens", []))
        full_dir = os.path.join(ckpt_dir, last_full_gen)
        snaps = [open(os.path.join(full_dir, f"shard{i}.bin"), "rb").read()
                 for i in range(S)]
        ray.get([s.restore.remote(b) for s, b in zip(shards, snaps)])
        for dgen in delta_chain:
            dgen_dir = os.path.join(ckpt_dir, dgen)
            blobs = [open(os.path.join(dgen_dir, f"shard{i}.bin"), "rb").read()
                     for i in range(S)]
            ray.get([s.apply_delta.remote(b)
                     for s, b in zip(shards, blobs)])
    else:
        # admit the seeds in list order (seq 0..n-1, depth 0) —
        # queue_manager.py:117 equivalent, generalized to a seed list
        by_shard_seed: dict[int, list] = {}
        seed_seen_rows = []
        seen_seed_keys: set[bytes] = set()
        for u, h in zip(seeds, seed_hosts):
            key = url_key(u)
            if key in seen_seed_keys:
                continue
            seen_seed_keys.add(key)
            by_shard_seed.setdefault(host_shard(h, S), []).append(
                (next_seq, 0, u, h, None, key))
            seed_seen_rows.append((key, u, h, 0, next_seq, None))
            next_seq += 1
        ray.get([shards[sid].insert_batch.remote(items)
                 for sid, items in by_shard_seed.items()])
        _write_seen_wave(seen_dir, 0, seed_seen_rows)

    wave_stats: list[dict] = []
    waves_done = 0
    # per-phase wall-time accounting (driver-observed, cumulative): where
    # a wave's critical path actually goes — fetch+extract pool wait vs
    # frontier RPCs vs driver-side admission vs checkpoint submission.
    # ``fetch_extract`` is only the wait the driver could not overlap: the
    # pool extracts predicted pages while the driver admits and pops.
    # Result/seen/snapshot IO runs in the background thread and is NOT on
    # the critical path (it overlaps the NEXT wave's fetch+extract).
    phase_sec = {"pop": 0.0, "fetch_extract": 0.0, "assemble": 0.0,
                 "admission": 0.0, "checkpoint": 0.0,
                 # background thread's wall (results+seen+snapshots+manifest)
                 # — OFF the critical path, reported for diagnosis; and how
                 # long the critical path actually stalled waiting for it
                 "io_background": 0.0, "io_join_stall": 0.0}
    ckpt_thread: Optional[threading.Thread] = None
    ckpt_err: list[BaseException] = []

    def _merge_pops(pops: list[list], budget: int) -> tuple[list, list]:
        """The first ``budget`` of the shards' pops in global (priority,
        seq) order, and the surplus: it goes back to the shard that popped
        it (``pops[sid]`` came from ``shards[sid]``)."""
        merged = sorted([(it, sid) for sid, sub in enumerate(pops)
                         for it in sub],
                        key=lambda x: (x[0][0], x[0][1]))
        if len(merged) > budget:  # return over-popped items to their shards
            back: dict[int, list] = {}
            for item, sid in merged[budget:]:  # (prio, seq, depth, url, parent)
                back.setdefault(sid, []).append(item)
            ray.get([shards[sid].push_back.remote(items)
                     for sid, items in back.items()])
        return ([item for item, _ in merged[:budget]],
                [item for item, _ in merged[budget:]])

    def _pop_wave(wv: int, budget: int) -> list:
        return _merge_pops(
            ray.get([s.pop_batch.remote(wv, budget) for s in shards]),
            budget)[0]

    def _submit_fetch(wave_urls: list[str], wv: int) -> list:
        """Fetch (J4) + extract on the persistent worker pool: URLs
        grouped by corpus bucket (each bucket's files searched for only
        ITS urls), then PACKED into equal-size tasks, one per pool worker
        when the wave is large. Per-bucket ≤batch_size chunking (round 4)
        left the pool ~45% idle: 4096-url waves became 32×128-url tasks
        over 28 workers — two rounds, the second nearly empty. Packing (a
        task may span buckets) gives every worker one near-equal task per
        wave; small waves still split at ≥16 urls/task for stragglers.
        Returns the (unblocked) futures."""
        by_bucket = _by_bucket(wave_urls, num_buckets)
        total = len(wave_urls)
        W = len(workers)
        # task count = a whole multiple of the pool size nearest
        # total/batch_size (even rounds, sizes near the batch_size knob),
        # floored so tiny waves keep ≥16 urls/task
        k = max(1, round(total / max(1, W * cfg.batch_size)))
        n_tasks = max(1, min(k * W, -(-total // 16)))
        per_task = -(-total // n_tasks)  # ceil
        tasks: list[list[tuple[list[str], list[str]]]] = [[] for _ in range(n_tasks)]
        sizes = [0] * n_tasks
        ti = 0
        for b, urls_in_bucket in sorted(by_bucket.items(),
                                        key=lambda kv: (kv[0] is None, kv[0])):
            paths = files_by_bucket.get(b, [])
            pos = 0
            while pos < len(urls_in_bucket):
                if sizes[ti] >= per_task:
                    ti += 1
                    continue
                chunk = urls_in_bucket[pos:pos + per_task - sizes[ti]]
                tasks[ti].append((paths, chunk))
                sizes[ti] += len(chunk)
                pos += len(chunk)
        wave_warc_dir = None
        if cfg.sink == "warc":
            wave_warc_dir = os.path.join(out_dir, "warc", f"wave={wv:06d}")
            os.makedirs(wave_warc_dir, exist_ok=True)
        return [workers[i % len(workers)].process.remote(
                    groups, fetch_token,
                    warc_out=(os.path.join(wave_warc_dir,
                                           f"part-{i:04d}.warc.gz")
                              if wave_warc_dir else None))
                for i, groups in enumerate(tasks) if groups]

    # fetch+extract tasks submitted ahead for the wave after next:
    # (its predicted urls, the futures)
    ahead_tasks: Optional[tuple[set[str], list]] = None
    # every popped page is a hit (extracted ahead) or an extra (fetched
    # once its pop arrived); wasted = predicted but not popped
    speculation = dict.fromkeys(("hit_pages", "extra_pages", "wasted_pages"),
                                0)

    def _wave_futures(wv: int, items: list) -> Optional[list]:
        """The fetch+extract futures of wave ``wv``'s pops: the tasks
        submitted ahead for ``wv``, plus new tasks for the pops they miss.
        Rows of predicted urls that were not popped are never read."""
        nonlocal ahead_tasks
        predicted, futures = ahead_tasks or (set(), [])
        ahead_tasks = None
        urls = [u for (_, _, _, u, _) in items]
        rest = [u for u in urls if u not in predicted]
        hit = len(urls) - len(rest)
        speculation["hit_pages"] += hit
        speculation["extra_pages"] += len(rest)
        speculation["wasted_pages"] += len(predicted) - hit
        if rest:
            futures = futures + _submit_fetch(rest, wv)
        return futures or None

    def _do_wave_io(w: int, nseq: int, succ: int, fail: int, popped: int,
                    snap_refs: list, stat_refs: list, gen: str,
                    full_gen: str, dchain: list[str], keep: set,
                    wave_tbl: Optional[pa.Table], idx_arr: Optional[pa.Array],
                    meta_rows: list, seen_rows: list) -> None:
        """Per-wave durable IO, run on a background thread overlapped with
        the NEXT wave's fetch+extract (VERDICT r4 item 1): result parquet,
        seen parquet, frontier snapshots, then the manifest rename — in
        that order, so the manifest only ever names state that is fully on
        disk. Crash-atomic exactly as before: snapshots land in a fresh
        generation dir, the manifest is temp-written and os.rename'd, THEN
        generations outside the live full+delta chain are removed."""
        _t0 = time.monotonic()
        try:
            if idx_arr is not None and meta_rows:
                sub = wave_tbl.take(idx_arr)
                res_tbl = pa.Table.from_arrays(
                    [pa.array([m[0] for m in meta_rows], pa.int64()),
                     pa.array([m[1] for m in meta_rows], pa.int32()),
                     pa.array([m[2] for m in meta_rows], pa.string()),
                     pa.array([m[3] for m in meta_rows], pa.string()),
                     pa.array([w] * len(meta_rows), pa.int32()),
                     sub.column("markdown"), sub.column("title"),
                     sub.column("language"), sub.column("status_code"),
                     sub.column("json_ld"), sub.column("open_graph"),
                     sub.column("twitter_card"), sub.column("meta_data")],
                    schema=CRAWL_RESULT)
                _write_result_wave_table(results_dir, w, res_tbl)
            if seen_rows:
                _write_seen_wave(seen_dir, w + 1, seen_rows)
            snaps = ray.get(snap_refs)
            gen_dir = os.path.join(ckpt_dir, gen)
            os.makedirs(gen_dir, exist_ok=True)
            for i, blob in enumerate(snaps):
                tmp = os.path.join(gen_dir, f"shard{i}.bin.tmp")
                with open(tmp, "wb") as f:
                    f.write(blob)
                os.rename(tmp, os.path.join(gen_dir, f"shard{i}.bin"))
            shard_stats = ray.get(stat_refs)
            frontier_depth = sum(st["queued"] for st in shard_stats)
            wave_stats.append({
                "wave": w, "popped": popped,
                "success": succ, "failed": fail,
                "frontier_depth": frontier_depth,
            })
            tmp_manifest = manifest_path + ".tmp"
            with open(tmp_manifest, "w") as f:
                json.dump({"wave": w, "next_seq": nseq, "gen": gen,
                           "full_gen": full_gen, "delta_gens": dchain,
                           "pages_success": succ,
                           "pages_failed": fail,
                           "shard_stats": shard_stats,
                           "waves": wave_stats}, f)
            os.rename(tmp_manifest, manifest_path)
            for old in glob.glob(os.path.join(ckpt_dir, "gen-*")):
                if os.path.basename(old) not in keep:
                    shutil.rmtree(old, ignore_errors=True)
        except BaseException as exc:  # surfaced at the next join
            ckpt_err.append(exc)
        finally:
            phase_sec["io_background"] += time.monotonic() - _t0

    # `pending` = (wave_no, wave_items, fetch futures) popped + submitted
    # one wave AHEAD: while the worker pool fetches+extracts wave N+1, the
    # background thread writes wave N's results/seen/checkpoint — the
    # barrier the reference's batch-of-N BFS loop has
    # (crawler_service.py:119-167) and VERDICT r4 asked to remove.
    # Wave N+1's pops need wave N's admissions, but most of them are known
    # earlier: the ``advance`` that pops wave N+1 also peeks wave N+2 as
    # if wave N+1 admitted nothing, and the driver submits those pages'
    # fetch+extract at once (``ahead_tasks``). The pool extracts them
    # while the driver assembles, admits and checkpoints wave N+1; when
    # wave N+2's true pops arrive, its predicted tasks are reused and only
    # the pops they miss are fetched (``_wave_futures``). The peek changes
    # no frontier state, so pops, seqs, admissions and checkpoints are
    # exactly those of a crawl without it.
    pending: Optional[tuple] = None

    while True:
        if pending is None:
            if cfg.max_waves is not None and waves_done >= cfg.max_waves:
                break  # simulated preemption (resume picks up from manifest)
            if pages_success >= cfg.max_pages:
                break  # crawler_service.py:125-127 page-side cap
            budget = min(cfg.wave_budget, cfg.max_pages - pages_success)
            _tp = time.monotonic()
            wave_items = _pop_wave(wave, budget)
            phase_sec["pop"] += time.monotonic() - _tp
            pending = (wave, wave_items, _wave_futures(wave, wave_items))

        wnum, wave_items, futures = pending
        pending = None
        if not wave_items:
            held = sum(ray.get([s.queue_size.remote() for s in shards]))
            if held == 0:
                break  # frontier empty ∧ nothing in flight (Q3 resolution)
            wave = wnum + 1  # politeness throttled this wave; advance time
            continue

        _tf = time.monotonic()
        batches = [t for t in map(wave_table, filter(None, ray.get(futures)))
                   if t.num_rows]
        del futures  # the result buffers now live only in ``batches``
        phase_sec["fetch_extract"] += time.monotonic() - _tf
        _ta = time.monotonic()
        wave_tbl = pa.concat_tables(batches) if batches else None
        if wave_tbl is None or wave_tbl.num_rows == 0:
            rows_by_url: dict[str, int] = {}
        else:
            rows_by_url = {u: i for i, u in
                           enumerate(wave_tbl.column("url").to_pylist())}

        # success/failure accounting + link projection in seq order. Only
        # the LINK columns are taken here (admission needs them now); the
        # result columns (markdown etc.) are taken + written on the
        # background IO thread.
        status = (wave_tbl.column("status_code").to_pylist()
                  if wave_tbl is not None else [])
        take_idx: list[int] = []
        meta_rows: list[tuple[int, int, str, Optional[str]]] = []
        for _prio, seq, depth, url, parent in wave_items:
            i = rows_by_url.get(url)
            if i is None or status[i] != 200:
                pages_failed += 1  # crawler_service.py:77-80 failure path
                continue
            pages_success += 1
            take_idx.append(i)
            meta_rows.append((seq, depth, url, parent))

        links_by_seq: list[tuple[int, int, list[str], str]] = []
        idx_arr: Optional[pa.Array] = None
        if take_idx:
            idx_arr = pa.array(take_idx, pa.int64())
            sub_links = wave_tbl.select(
                ["links", "link_keys", "link_hosts"]).take(idx_arr)
            links_lists = sub_links.column("links").to_pylist()
            keys_lists = sub_links.column("link_keys").to_pylist()
            hosts_lists = sub_links.column("link_hosts").to_pylist()
            for (seq, depth, url, _parent), links, keys, hosts in zip(
                    meta_rows, links_lists, keys_lists, hosts_lists):
                if depth < cfg.max_depth:  # expansion gate crawler_service.py:61
                    links_by_seq.append((seq, depth, links, keys, hosts, url))

        phase_sec["assemble"] += time.monotonic() - _ta
        # --- two-phase admission -----------------------------------------
        # link canonicalization + SHA-1 already done in the worker pool;
        # this loop only assigns dense ranks in (parent-pop-order, doc-pos)
        # order. Under BFS pop order within a wave IS parent_seq order (the
        # sort is a belt-and-braces no-op); under a priority_fn the serial
        # semantics admit children in parent POP order, so the list must
        # stay as assembled from wave_items.
        _tm = time.monotonic()
        if cfg.priority_fn is None:
            links_by_seq.sort(key=lambda x: x[0])
        # each candidate carries its shard, so its host is hashed once
        cands: list[tuple[int, bytes, str, str, int, str, int]] = []
        rank = 0
        for seq, depth, links, keys, hosts, parent_url in links_by_seq:
            for link, key, host in zip(links, keys, hosts):
                cands.append((rank, key, link, host, depth + 1, parent_url,
                              host_shard(host, S)))
                rank += 1
        by_shard: dict[int, list[tuple[int, bytes, str, str]]] = {}
        for rank_, key, url, host, depth_, parent, sid in cands:
            by_shard.setdefault(sid, []).append((rank_, key, url, host))
        checks = ray.get([
            shards[sid].check_batch.remote(items)
            for sid, items in by_shard.items()
        ])
        admissible = {r for sub in checks for (r, ok) in sub if ok}

        # assign global seqs in rank order, capped by max_pages admissions
        # (queue_manager.py:47-49: depth ≤ max_depth ∧ |seen| < max_pages)
        inserts: dict[int, list] = {}
        seen_rows = []
        for rank_, key, url, host, depth_, parent, sid in cands:
            if rank_ not in admissible:
                continue
            if depth_ > cfg.max_depth:
                continue
            if next_seq >= cfg.max_pages:  # |seen| cap
                break
            inserts.setdefault(sid, []).append(
                (next_seq, depth_, url, host, parent, key))
            seen_rows.append((key, url, host, depth_, next_seq, parent))
            next_seq += 1
        phase_sec["admission"] += time.monotonic() - _tm
        _tc = time.monotonic()

        # --- checkpoint at the wave boundary (R3) + next wave's pops ------
        # One ``advance`` per shard inserts this wave's admissions, takes
        # the wave-boundary snapshot and stats (post-insert, pre-pop), then
        # pops the next wave — budget 0 when no next wave follows — and
        # peeks the wave after it (``ahead`` urls, 0 when that wave might
        # not run: past ``max_waves`` or the page cap, or under the warc
        # sink, which archives every page a task reads). Every
        # cfg.snapshot_full_every-th wave takes a full snapshot (a new
        # delta base); other waves ship only the wave's admitted keys +
        # live queue state (VERDICT r4 item 5). The snapshot and stats refs
        # go to the background IO thread; the driver waits only on the
        # pops, which also surface an insert-contract error (on a last
        # wave, the IO thread's get does).
        full = (last_full_gen is None
                or (wnum % max(1, cfg.snapshot_full_every)) == 0)
        gen = f"gen-{wnum}"
        if full:
            last_full_gen, delta_chain = gen, []
        else:
            delta_chain = delta_chain + [gen]
        keep_gens = {last_full_gen, *delta_chain}
        wave = wnum + 1
        waves_done += 1
        prefetch = not (cfg.max_waves is not None
                        and waves_done >= cfg.max_waves) \
            and pages_success < cfg.max_pages
        budget = (min(cfg.wave_budget, cfg.max_pages - pages_success)
                  if prefetch else 0)
        ahead = 0
        if prefetch and cfg.sink != "warc" and (
                cfg.max_waves is None or waves_done + 1 < cfg.max_waves):
            ahead = max(0, min(cfg.wave_budget,
                               cfg.max_pages - pages_success - budget))
        pop_refs, snap_refs, stat_refs, peek_refs = map(list, zip(*[
            s.advance.remote(inserts.get(sid, []), full, wave, budget, ahead)
            for sid, s in enumerate(shards)]))
        phase_sec["checkpoint"] += time.monotonic() - _tc

        # --- prefetch the next wave, predict the one after ---------------
        # The fetch+extract futures run on the worker pool while THIS
        # wave's IO thread writes below. The next wave's missing pages are
        # submitted before the predicted ones, so they come back first.
        if prefetch:
            _tp = time.monotonic()
            nitems, surplus = _merge_pops(ray.get(pop_refs), budget)
            peeks = ray.get(peek_refs) if ahead else []
            phase_sec["pop"] += time.monotonic() - _tp
            pending = (wave, nitems, _wave_futures(wave, nitems))
            # the surplus went back to its shards after they peeked, so it
            # joins the peeks here; the next wave pops it like any other url
            predicted = sorted([*surplus, *(it for sub in peeks for it in sub)],
                               key=lambda it: (it[0], it[1]))[:ahead]
            if predicted:
                urls = [u for (_, _, _, u, _) in predicted]
                ahead_tasks = (set(urls), _submit_fetch(urls, wave + 1))

        # join the PREVIOUS wave's IO only now — it overlapped this whole
        # wave (fetch wait + admission + prefetch); one IO thread at a
        # time keeps generations ordered and wave_stats single-writer
        if ckpt_thread is not None:
            _tj = time.monotonic()
            ckpt_thread.join()
            phase_sec["io_join_stall"] += time.monotonic() - _tj
            if ckpt_err:
                raise ckpt_err[0]
        ckpt_thread = threading.Thread(
            target=_do_wave_io,
            args=(wnum, next_seq, pages_success, pages_failed,
                  len(wave_items), snap_refs, stat_refs, gen,
                  last_full_gen, list(delta_chain), keep_gens,
                  wave_tbl, idx_arr, meta_rows, seen_rows),
            daemon=True)
        ckpt_thread.start()

    if ckpt_thread is not None:
        ckpt_thread.join()
        if ckpt_err:
            raise ckpt_err[0]
    dur = time.time() - t0
    shard_stats = ray.get([s.stats.remote() for s in shards])
    worker_fetch = ray.get([w.end_crawl.remote(fetch_token) for w in workers])
    total_dup = sum(st["dup_hits"] for st in shard_stats)
    total_offered = sum(st["offered"] for st in shard_stats)
    stats = {
        "pages_success": pages_success,
        "pages_failed": pages_failed,
        "total_seen": next_seq,
        "waves": wave,
        "duration_sec": dur,
        "pages_per_sec": (pages_success + pages_failed) / dur if dur > 0 else 0.0,
        "dedup_hit_rate": total_dup / total_offered if total_offered else 0.0,
        "robots_blocked": sum(st["robots_blocked"] for st in shard_stats),
        "filter_false_positives": sum(st["filter_false_positives"] or 0
                                      for st in shard_stats),
        "phase_sec": {k: round(v, 3) for k, v in phase_sec.items()},
        "shards": shard_stats,
        # summed over the workers: row groups decoded and reused, rows
        # decoded, pages (rows) fetched
        "fetch": {k: sum(f[k] for f in worker_fetch) for k in FETCH_COUNTERS},
        "speculation": speculation,
    }
    if cfg.sink == "warc":
        stats["warc_dir"] = warc_dir
    return CrawlOutcome(results_dir=results_dir, seen_dir=seen_dir, stats=stats)


def _write_result_wave_table(results_dir: str, wave: int,
                             table: pa.Table) -> None:
    # zero-padded so lexicographic file order == wave order — readers
    # reconstructing POP order (e.g. priority-crawl conformance) depend
    # on it past wave 9 (review finding)
    d = os.path.join(results_dir, f"wave={wave:06d}")
    os.makedirs(d, exist_ok=True)
    pq.write_table(table, os.path.join(d, "part-0.parquet"))


def _write_seen_wave(seen_dir: str, wave: int,
                     rows: list[tuple[bytes, str, str, int, int, Optional[str]]]) -> None:
    d = os.path.join(seen_dir, f"wave={wave:06d}")
    os.makedirs(d, exist_ok=True)
    cols = list(zip(*rows))
    t = pa.Table.from_arrays(
        [pa.array(list(cols[0]), pa.binary()),
         pa.array(list(cols[1]), pa.string()),
         pa.array(list(cols[2]), pa.string()),
         pa.array(list(cols[3]), pa.int32()),
         pa.array(list(cols[4]), pa.int64()),
         pa.array(list(cols[5]), pa.string())],
        schema=SEEN,
    )
    pq.write_table(t, os.path.join(d, "part-0.parquet"))
