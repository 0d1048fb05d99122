"""Wave-synchronous BFS crawl over a Parquet page corpus (SURVEY.md §3.2).

``crawl()`` sets up a ``_WaveLoop``, runs ``seed_or_resume``, then per wave
the phase methods below, each timed into the stats' ``phase_sec``:

    pop       frontier shards --(depth,seq) order--> wave; its pages go to
              the persistent WaveWorker actor pool: corpus fetch
              (CorpusReader: is_in on each bucket file's cached url column,
              only the matching row groups decoded; J4) -> WaveExtractor
    collect   wait for the wave's Arrow IPC results
    assemble  success/failure counts + link projection, in pop order
    admit     check_batch per shard, then dense global seqs
    advance   one call per shard: insert + wave-boundary snapshot + stats
              + the next wave's pops + a peek at the wave after; ``pop``
              then submits the next wave's missing pages, then the peeked
    persist   join the previous wave's IO thread; start this wave's:
              result + seen parquet, snapshots, a checkpoint/waves.jsonl
              line, the manifest rename (it counts the valid log lines)

Determinism: pops are merged in (depth, seq) order; candidate links are
enumerated (parent_seq, document-position)-major; global admission seqs are
assigned in that order — the SURVEY.md Q1-Q5 resolutions. The admission
sequence is invariant to wave size because pop order is seq order and waves
concatenate in seq order. Driver work per wave is O(popped + candidate
links) — bounded by ``wave_budget`` × fan-out, never O(corpus).
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import json
import math
import os
import pathlib
import shutil
import threading
import time
import uuid
from typing import Any, ClassVar, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .extract import (_collector_paused, decode_html, error_row, extract_page,
                      json_cell)
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
    seed_host_only_robots: ClassVar[bool] = True  # reference quirk (link_extractor.py:30-46)
    only_main: bool = True
    num_shards: int = 4
    wave_budget: int = 256          # max pops per wave across all shards
    politeness_rate: float = math.inf   # pops per host per wave
    politeness_burst: float = math.inf
    politeness_wave_seconds: ClassVar[float] = 1.0  # virtual seconds per wave (Crawl-delay mapping)
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
    # ∝ capacity) every 8th wave, per-wave DELTAS (∝ that wave's
    # admissions) in between; restore replays full + delta chain.
    snapshot_full_every: ClassVar[int] = 8


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
    columns hold what the bulk ``PageExtractor``'s rows hold for the same
    url; ``links`` are the cleaned page's links that pass the crawl's
    filter (compiled once per actor, ST7).

    Each filtered link also carries its canonical SHA-1 key and host,
    computed here in the (parallel) worker pool so the driver's admission
    loop does no per-link URL parsing or hashing — only rank assignment
    and shard routing. A batch filters, canonicalizes and keys each
    distinct link once: a host's pages share most of their links."""

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
        link_filter = self.link_filter
        # link → (SHA-1 key, host) of its canonical form, None if filtered
        keyed: dict[str, Optional[tuple[bytes, str]]] = {}
        rows: list[tuple] = []
        with _collector_paused():
            for url, html in zip(batch.column("url").to_pylist(),
                                 batch.column("html").to_pylist()):
                try:
                    res = extract_page(url, decode_html(html),
                                       only_main=self.only_main)
                    links, keys, hosts = [], [], []
                    for u in res["crawl_links"]:
                        if u in keyed:
                            kh = keyed[u]
                        else:
                            kh = None
                            if link_filter(u):
                                c = canonicalize(u)
                                kh = (url_key(c), host_of(c))
                            keyed[u] = kh
                        if kh is not None:
                            links.append(u)
                            keys.append(kh[0])
                            hosts.append(kh[1])
                    st = res["structured"]
                    row = (res["markdown"], res["metadata"].get("title", ""),
                           st["metaData"].get("language", ""), 200,
                           json_cell(st["jsonLd"], "[]"),
                           json_cell(st["openGraph"], "{}"),
                           json_cell(st["twitterCard"], "{}"),
                           json_cell(st["metaData"], "{}"), links, keys, hosts)
                except Exception:
                    row = _WAVE_ERROR_ROW
                rows.append(row)
        cols = list(zip(*rows)) if rows else [()] * len(_WAVE_FIELDS)
        return pa.Table.from_arrays(
            [batch.column("url").cast(pa.string())]
            + [pa.array(c, f.type) for c, f in zip(cols, _WAVE_FIELDS)],
            schema=WAVE_COLUMNS)


# the WAVE_COLUMNS after ``url``, and a failed page's values of them (the
# bulk kernel's ``error_row``, whose message the crawl drops)
_WAVE_FIELDS = list(WAVE_COLUMNS)[1:]
_WAVE_ERROR_ROW = tuple(error_row(Exception(), link_keys=[], link_hosts=[])[
    f.name] for f in _WAVE_FIELDS)


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

    A worker is built with no arguments and serves any crawl: each
    ``process`` call carries its crawl's token and extractor settings.

    Fault tolerance: the only state a worker keeps between calls is its
    current crawl's ``CorpusReader`` and ``WaveExtractor``, which the next
    call's token and settings rebuild, and that crawl's counters, so Ray
    restarts workers transparently (max_restarts/max_task_retries; a
    restart loses the counters, never the results); frontier shards are
    stateful — their recovery path is the per-wave checkpoint
    (resume=True).
    """

    def __init__(self) -> None:
        # (crawl token, that crawl's reader, its extractor, its
        # EXTRACT_COUNTERS); a pooled worker serves crawl after crawl, and
        # the corpus and the settings may change in between
        self._crawl: Optional[tuple[str, CorpusReader, WaveExtractor,
                                    dict]] = None

    def ping(self) -> bool:
        return True

    def _drop_crawl(self) -> Optional[tuple[str, "CorpusReader",
                                            WaveExtractor, dict]]:
        state, self._crawl = self._crawl, None
        if state is not None:
            state[1].close()
        return state

    def process(self, groups: list[tuple[list[str], list[str]]], token: str,
                settings: tuple, warc_out: Optional[str] = None
                ) -> Optional[bytes]:
        """groups: [(bucket_paths, urls), ...] — one task may span several
        corpus buckets so the driver can pack a wave into exactly
        pool-size equal tasks (per-bucket chunking quantized waves into
        uneven worker rounds — the round-4 crawl-vs-bulk utilization gap).
        Each bucket's files are searched for only ITS urls.

        ``token`` names the crawl: calls with the same token share one
        ``CorpusReader`` (open files, url columns, the previous two calls'
        decoded row groups), one ``WaveExtractor`` and one set of
        counters; a new token drops the old crawl's. ``settings`` are the
        crawl's ``WaveExtractor`` arguments (seed hosts, exclude and
        include patterns, only_main); the first call of a token builds
        the extractor from them, so a restarted worker rebuilds it too.

        ``warc_out``: archive this task's fetched rows as one
        Common-Crawl-layout .warc.gz (crawl sink='warc') — written here in
        the worker so the sink parallelizes with extraction.

        Returns the task's ``WAVE_COLUMNS`` rows as one Arrow IPC stream
        (read it with ``wave_table``), or None when no url was found."""
        if self._crawl is None or self._crawl[0] != token:
            self._drop_crawl()
            self._crawl = (token, CorpusReader(), WaveExtractor(*settings),
                           dict.fromkeys(EXTRACT_COUNTERS, 0))
        _, reader, extractor, counters = self._crawl
        fetched = reader.read(
            groups, ["url", "warc_ts", "html"] if warc_out else ["url", "html"])
        if fetched is None:
            return None
        if warc_out is not None:
            from .warc import write_warc_pages

            write_warc_pages(fetched, warc_out)
        # this thread's CPU: the process's also counts Ray's own threads
        cpu = time.thread_time()
        table = extractor(fetched.select(["url", "html"]))
        counters["cpu_s"] += time.thread_time() - cpu
        counters["tasks"] += 1
        counters["pages"] += table.num_rows
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, table.schema) as writer:
            writer.write_table(table)
        return sink.getvalue().to_pybytes()

    def end_crawl(self, token: str) -> dict[str, dict]:
        """Crawl ``token``'s counters, ``{"fetch": FETCH_COUNTERS,
        "extract": EXTRACT_COUNTERS}`` (zeros if this worker holds none of
        its state); drops the crawl's state either way."""
        state = self._drop_crawl()
        if state is None or state[0] != token:
            return {"fetch": dict.fromkeys(FETCH_COUNTERS, 0),
                    "extract": dict.fromkeys(EXTRACT_COUNTERS, 0)}
        return {"fetch": state[1].counters, "extract": state[3]}


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
# a worker's WaveExtractor calls, the pages they returned and the CPU
# seconds they took
EXTRACT_COUNTERS = ("tasks", "pages", "cpu_s")


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
# them). Both kinds are generic: a worker gets its crawl's settings with
# each call and a shard is reset() per crawl, so one pool of each serves
# every crawl, and reuse only skips actor spawn + import cost. One crawl
# at a time per process — the same contract as the reference's global
# pool. (``_WORKER_POOLS`` is one list; callers clear it by that name.)
_WORKER_POOLS: list = []
_SHARD_POOL: list = []


def _pooled(pool: list, n: int, new) -> list:
    """The first ``n`` live actors of ``pool``, topped up with
    ``new(index)``. An actor that fails a ping is dropped first: a killed
    actor fails the get; a handle from a shut-down Ray session already
    fails the submit."""
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
    while len(pool) < n:
        pool.append(new(len(pool)))
    return pool[:n]


def _get_worker_pool(n: int) -> list:
    return _pooled(_WORKER_POOLS, n, lambda _: WaveWorker.remote())


def _get_shard_pool(n: int, shard_kwargs: dict) -> list:
    shards = _pooled(_SHARD_POOL, n, FrontierShard.remote)
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


@dataclasses.dataclass
class _Wave:
    """One wave's state, filled in phase by phase. ``persist`` hands it to
    the IO thread, and the driver keeps no reference to it after that."""
    num: int
    items: list                      # pops: (prio, seq, depth, url, parent)
    futures: Optional[list]          # fetch+extract tasks until ``collect``
    table: Optional[pa.Table] = None  # the fetched pages' WAVE_COLUMNS
    idx: Optional[pa.Array] = None   # table rows of the successful pops
    meta_rows: list = dataclasses.field(default_factory=list)
    links: list = dataclasses.field(default_factory=list)
    inserts: dict = dataclasses.field(default_factory=dict)
    seen_rows: list = dataclasses.field(default_factory=list)
    refs: tuple = ()                 # ``advance``'s snapshot and stats refs


class _WaveLoop:
    """``crawl()``'s driver: the crawl-wide state, one method per phase.
    ``__init__`` is the setup; ``seed_or_resume`` admits the seeds or
    restores the manifest's checkpoint; a wave then runs ``collect``,
    ``assemble``, ``admit``, ``advance``, ``pop`` (of the next wave) and
    ``persist``, each timed into ``phase_sec`` by ``timed``."""

    def __init__(self, corpus_path: str, cfg: CrawlConfig) -> None:
        self.t0 = time.time()
        self.cfg = cfg
        # sha1 (not PYTHONHASHSEED-salted hash()) so resume=True with the
        # default out_dir finds the previous run's checkpoint across
        # processes. The priority mode is part of the identity (ADVICE
        # r3): resuming a BFS checkpoint into a priority crawl would yield
        # a hybrid pop order (heap entries keep priorities computed by the
        # old fn) — a different priority_fn must land in a different
        # default out_dir. So must a different num_shards: a checkpoint
        # holds one snapshot per shard.
        prio_tag = ("bfs" if cfg.priority_fn is None else
                    f"{cfg.priority_fn.__module__}.{cfg.priority_fn.__qualname__}"
                    f".{_code_fingerprint(cfg.priority_fn)}")
        cfg_key = hashlib.sha1(
            f"{corpus_path}|{cfg.seed_url}|{cfg.max_depth}|{cfg.max_pages}"
            f"|{prio_tag}|{cfg.num_shards}".encode()
        ).hexdigest()[:16]
        self.out_dir = cfg.out_dir or f"/tmp/raycrawl_run/{cfg_key}"
        self.results_dir, self.seen_dir, self.ckpt_dir, warc_dir = (
            os.path.join(self.out_dir, d)
            for d in ("results", "seen", "checkpoint", "warc"))
        if not cfg.resume:
            # a fresh run must not concatenate stale wave dirs from a
            # longer previous run into its results/seen output
            for d in (self.results_dir, self.seen_dir, self.ckpt_dir,
                      warc_dir):
                shutil.rmtree(d, ignore_errors=True)
        for d in (self.results_dir, self.seen_dir, self.ckpt_dir):
            os.makedirs(d, exist_ok=True)
        self.manifest_path = os.path.join(self.ckpt_dir, "manifest.json")
        # one JSON line of stats per persisted wave; the manifest's
        # ``waves_logged`` says how many of its lines are valid
        self.log_path = os.path.join(self.ckpt_dir, "waves.jsonl")
        # the checkpoint to resume from, checked before any actor starts
        self.manifest: Optional[dict] = None
        if cfg.resume and os.path.exists(self.manifest_path):
            with open(self.manifest_path) as f:
                self.manifest = json.load(f)
            # a frontier key's shard is host_shard(host, S): a checkpoint
            # of S shards restores only into S shards (older manifests
            # record S only as their per-shard stats)
            written = self.manifest.get(
                "num_shards", len(self.manifest["shard_stats"]))
            if written != cfg.num_shards:
                raise ValueError(
                    f"checkpoint {self.ckpt_dir} was written with "
                    f"num_shards={written}; this crawl has "
                    f"num_shards={cfg.num_shards}")

        seed_urls = ([cfg.seed_url] if isinstance(cfg.seed_url, str)
                     else list(cfg.seed_url))
        self.seeds = [normalize_url(u, u) for u in seed_urls]
        self.seed_hosts = [host_of(u) for u in self.seeds]
        seed_host = self.seed_hosts[0]
        # the reference's seed-host-only robots quirk only makes sense for
        # one seed; multi-seed runs use proper per-host rules
        seed_host_only = cfg.seed_host_only_robots and len(self.seeds) == 1
        self.shards = _get_shard_pool(cfg.num_shards, dict(
            capacity=cfg.filter_capacity,
            exact_shadow=cfg.exact_shadow,
            politeness_rate=cfg.politeness_rate,
            politeness_burst=cfg.politeness_burst,
            wave_seconds=cfg.politeness_wave_seconds,
            seed_host_only=seed_host_only,
            seed_host=seed_host,
            respect_robots=cfg.respect_robots,
            priority_fn=cfg.priority_fn,
        ))
        self.workers = _get_worker_pool(cfg.extract_concurrency)
        self.files_by_bucket, self.num_buckets = _corpus_files(corpus_path)
        # name this crawl's state on the workers and build its extractor
        # there (see WaveWorker.process)
        self.fetch_token = uuid.uuid4().hex
        self.extract_settings = (frozenset(self.seed_hosts),
                                 cfg.exclude_patterns, cfg.include_patterns,
                                 cfg.only_main)

        # robots preload: one targeted read of https://host/robots.txt rows.
        # seed-host-only quirk mode loads the seed's rules into every shard.
        if cfg.respect_robots:
            hosts = list(dict.fromkeys(self.seed_hosts))
            with contextlib.closing(CorpusReader()) as reader:
                t = reader.read(self._groups(
                    [f"https://{h}/robots.txt" for h in hosts]), ["url", "text"])
            bodies = ({} if t is None else
                      dict(zip(map(host_of, t.column("url").to_pylist()),
                               t.column("text").to_pylist())))
            if seed_host_only:
                per_shard = {sid: {seed_host: bodies.get(seed_host)}
                             for sid in range(cfg.num_shards)}
            else:
                per_shard: dict[int, dict] = {}
                for h in hosts:
                    per_shard.setdefault(host_shard(h, cfg.num_shards),
                                         {})[h] = bodies.get(h)
            ray.get([self.shards[sid].load_robots.remote(b)
                     for sid, b in per_shard.items()])

        # the next wave to pop, the next admission seq, page counts, the
        # waves this call ran and the wave-log lines on disk
        self.wave = self.next_seq = self.pages_success = self.pages_failed = 0
        self.waves_done = self.waves_logged = 0
        # incremental-snapshot chain: the latest FULL generation plus the
        # ordered delta generations since it (VERDICT r4 item 5)
        self.full_gen: Optional[str] = None
        self.delta_chain: list[str] = []
        # driver-observed wall time per phase, cumulative: where a wave's
        # critical path goes. ``fetch_extract`` is only the wait the driver
        # could not overlap (the pool extracts predicted pages while the
        # driver admits and pops). ``io_background`` is the IO thread's
        # wall, off the critical path; ``io_join_stall`` how long the
        # critical path waited for it.
        self.phase_sec = dict.fromkeys(
            ("pop", "fetch_extract", "assemble", "admission", "checkpoint",
             "io_background", "io_join_stall"), 0.0)
        # every popped page is a hit (extracted ahead) or an extra (fetched
        # once its pop arrived); wasted = predicted but not popped
        self.speculation = dict.fromkeys(
            ("hit_pages", "extra_pages", "wasted_pages"), 0)
        # fetch+extract tasks submitted ahead for the wave after next:
        # (its predicted urls, the futures)
        self.ahead: Optional[tuple[set[str], list]] = None
        self.io: Optional[threading.Thread] = None
        self.io_err: list[BaseException] = []

    @contextlib.contextmanager
    def timed(self, phase: str):
        t = time.monotonic()
        try:
            yield
        finally:
            self.phase_sec[phase] += time.monotonic() - t

    def _groups(self, urls: list[str]) -> list[tuple[list[str], list[str]]]:
        """``urls`` grouped by corpus bucket, each with its bucket's files."""
        return [(self.files_by_bucket.get(b, []), us) for b, us in
                sorted(_by_bucket(urls, self.num_buckets).items(),
                       key=lambda kv: (kv[0] is None, kv[0]))]

    def seed_or_resume(self) -> None:
        """Restore the frontier, counters and wave log the manifest names,
        or admit the seeds (seq 0..n-1, depth 0, in list order —
        queue_manager.py:117 equivalent, generalized to a seed list)."""
        S = self.cfg.num_shards
        logged: list[str] = []
        m = self.manifest
        if m is not None:
            self.wave, self.next_seq = m["wave"] + 1, m["next_seq"]
            self.pages_success, self.pages_failed = (m["pages_success"],
                                                     m["pages_failed"])
            # the manifest names its snapshot generations, so a crash
            # between snapshot write and manifest rename can never pair a
            # stale manifest with newer snapshots. Restore = the full base,
            # then each delta generation in chain order.
            self.full_gen = m.get("full_gen", m.get("gen", ""))
            self.delta_chain = list(m.get("delta_gens", []))
            for g, gen in enumerate([self.full_gen, *self.delta_chain]):
                blobs = [pathlib.Path(self.ckpt_dir, gen, f"shard{i}.bin")
                         .read_bytes() for i in range(S)]
                ray.get([(s.apply_delta if g else s.restore).remote(b)
                         for s, b in zip(self.shards, blobs)])
            if "waves" in m:  # the old layout kept every wave's stats here
                logged = [json.dumps(st) + "\n" for st in m["waves"]]
            else:  # lines past the count: a wave whose manifest never landed
                with open(self.log_path) as f:
                    logged = f.readlines()[:m["waves_logged"]]
        else:
            by_shard: dict[int, list] = {}
            seen_rows = []
            keys: set[bytes] = set()
            for u, h in zip(self.seeds, self.seed_hosts):
                key = url_key(u)
                if key in keys:
                    continue
                keys.add(key)
                by_shard.setdefault(host_shard(h, S), []).append(
                    (self.next_seq, 0, u, h, None, key))
                seen_rows.append((key, u, h, 0, self.next_seq, None))
                self.next_seq += 1
            ray.get([self.shards[sid].insert_batch.remote(items)
                     for sid, items in by_shard.items()])
            _write_seen_wave(self.seen_dir, 0, seen_rows)
        with open(self.log_path, "w") as f:
            f.writelines(logged)
        self.waves_logged = len(logged)

    def stopping(self) -> bool:
        """No next wave: ``max_waves`` waves ran in this call (a simulated
        preemption; resume picks up from the manifest) or the page cap is
        reached (crawler_service.py:125-127)."""
        cfg = self.cfg
        return ((cfg.max_waves is not None
                 and self.waves_done >= cfg.max_waves)
                or self.pages_success >= cfg.max_pages)

    def _submit(self, urls: list[str], num: int) -> list:
        """Fetch (J4) + extract of ``urls`` for wave ``num`` on the
        persistent worker pool: URLs grouped by corpus bucket (each
        bucket's files searched for only ITS urls), then PACKED into
        equal-size tasks, one per pool worker when the wave is large.
        Per-bucket ≤batch_size chunking (round 4) left the pool ~45% idle:
        4096-url waves became 32×128-url tasks over 28 workers — two
        rounds, the second nearly empty. Packing (a task may span buckets)
        gives every worker one near-equal task per wave; small waves still
        split at ≥16 urls/task for stragglers. Returns the futures."""
        total, W = len(urls), len(self.workers)
        # task count = a whole multiple of the pool size nearest
        # total/batch_size (even rounds, sizes near the batch_size knob),
        # floored so tiny waves keep ≥16 urls/task
        k = max(1, round(total / max(1, W * self.cfg.batch_size)))
        n_tasks = max(1, min(k * W, -(-total // 16)))
        per_task = -(-total // n_tasks)  # ceil
        tasks: list[list[tuple[list[str], list[str]]]] = [[] for _ in range(n_tasks)]
        sizes = [0] * n_tasks
        ti = 0
        for paths, in_bucket in self._groups(urls):
            pos = 0
            while pos < len(in_bucket):
                if sizes[ti] >= per_task:
                    ti += 1
                    continue
                chunk = in_bucket[pos:pos + per_task - sizes[ti]]
                tasks[ti].append((paths, chunk))
                sizes[ti] += len(chunk)
                pos += len(chunk)
        warc_dir = None
        if self.cfg.sink == "warc":
            warc_dir = os.path.join(self.out_dir, "warc", f"wave={num:06d}")
            os.makedirs(warc_dir, exist_ok=True)
        return [self.workers[i % W].process.remote(
                    groups, self.fetch_token, self.extract_settings,
                    warc_out=(os.path.join(warc_dir, f"part-{i:04d}.warc.gz")
                              if warc_dir else None))
                for i, groups in enumerate(tasks) if groups]

    def pop(self, pop_refs: Optional[list] = None, peek_refs: list = (),
            ahead: int = 0) -> _Wave:
        """Wave ``self.wave``: the first ``budget`` of the shards' pops in
        global (priority, seq) order, the surplus pushed back to the shard
        that popped it, and the wave's fetch+extract tasks — the ones
        submitted ahead for it plus new ones for the pops they miss (rows
        of predicted urls that were not popped are never read). Pops come
        from ``pop_refs``, the previous wave's ``advance``, else from
        ``pop_batch``. Then the wave after's ``ahead`` likeliest pages are
        submitted: the surplus (the next pop takes it back) and the peeks."""
        num, budget = self.wave, min(self.cfg.wave_budget,
                                     self.cfg.max_pages - self.pages_success)
        with self.timed("pop"):
            if pop_refs is None:
                pop_refs = [s.pop_batch.remote(num, budget)
                            for s in self.shards]
            merged = sorted([(it, sid) for sid, sub in
                             enumerate(ray.get(pop_refs)) for it in sub],
                            key=lambda x: (x[0][0], x[0][1]))
            if len(merged) > budget:  # return over-popped items to their shards
                back: dict[int, list] = {}
                for item, sid in merged[budget:]:
                    back.setdefault(sid, []).append(item)
                ray.get([self.shards[sid].push_back.remote(items)
                         for sid, items in back.items()])
            peeks = ray.get(list(peek_refs)) if ahead else []
        items = [item for item, _ in merged[:budget]]
        predicted, futures = self.ahead or (set(), [])
        self.ahead = None
        urls = [u for (_, _, _, u, _) in items]
        rest = [u for u in urls if u not in predicted]
        spec = self.speculation
        spec["hit_pages"] += len(urls) - len(rest)
        spec["extra_pages"] += len(rest)
        spec["wasted_pages"] += len(predicted) - (len(urls) - len(rest))
        if rest:  # the missing pages go out before the predicted ones
            futures = futures + self._submit(rest, num)
        w = _Wave(num, items, futures or None)
        ahead_items = sorted(
            [*(item for item, _ in merged[budget:]),
             *(it for sub in peeks for it in sub)],
            key=lambda it: (it[0], it[1]))[:ahead]
        if ahead_items:
            urls = [u for (_, _, _, u, _) in ahead_items]
            self.ahead = (set(urls), self._submit(urls, num + 1))
        return w

    def collect(self, w: _Wave) -> list[pa.Table]:
        """Wait for the wave's fetch+extract results."""
        with self.timed("fetch_extract"):
            batches = [t for t in map(wave_table, filter(None, ray.get(w.futures)))
                       if t.num_rows]
            w.futures = None  # the result buffers now live only in ``batches``
        return batches

    def assemble(self, w: _Wave, batches: list[pa.Table]) -> None:
        """Success/failure accounting and the link projection, in pop
        order. Only the LINK columns are taken here (admission needs them
        now); the result columns are taken and written on the IO thread."""
        with self.timed("assemble"):
            w.table = pa.concat_tables(batches) if batches else None
            rows = ({} if w.table is None else
                    {u: i for i, u in
                     enumerate(w.table.column("url").to_pylist())})
            status = ([] if w.table is None else
                      w.table.column("status_code").to_pylist())
            take: list[int] = []
            for _prio, seq, depth, url, parent in w.items:
                i = rows.get(url)
                if i is None or status[i] != 200:
                    self.pages_failed += 1  # crawler_service.py:77-80 failure path
                    continue
                self.pages_success += 1
                take.append(i)
                w.meta_rows.append((seq, depth, url, parent))
            if take:
                w.idx = pa.array(take, pa.int64())
                sub = w.table.select(
                    ["links", "link_keys", "link_hosts"]).take(w.idx)
                for (seq, depth, url, _parent), links, keys, hosts in zip(
                        w.meta_rows, sub.column("links").to_pylist(),
                        sub.column("link_keys").to_pylist(),
                        sub.column("link_hosts").to_pylist()):
                    if depth < self.cfg.max_depth:  # expansion gate crawler_service.py:61
                        w.links.append((seq, depth, links, keys, hosts, url))

    def admit(self, w: _Wave) -> None:
        """Two-phase admission. Link canonicalization and SHA-1 are done in
        the worker pool; this only assigns dense ranks in (parent pop
        order, document position) order. Under BFS pop order within a
        wave IS parent_seq order (the sort is a belt-and-braces no-op);
        under a priority_fn the serial semantics admit children in parent
        POP order, so the list stays as assembled from the pops."""
        cfg, S = self.cfg, self.cfg.num_shards
        with self.timed("admission"):
            if cfg.priority_fn is None:
                w.links.sort(key=lambda x: x[0])
            # each candidate carries its shard, so its host is hashed once
            cands: list[tuple[int, bytes, str, str, int, str, int]] = []
            for _seq, depth, links, keys, hosts, parent_url in w.links:
                for link, key, host in zip(links, keys, hosts):
                    cands.append((len(cands), key, link, host, depth + 1,
                                  parent_url, host_shard(host, S)))
            by_shard: dict[int, list[tuple[int, bytes, str, str]]] = {}
            for rank, key, url, host, _depth, _parent, sid in cands:
                by_shard.setdefault(sid, []).append((rank, key, url, host))
            checks = ray.get([self.shards[sid].check_batch.remote(items)
                              for sid, items in by_shard.items()])
            admissible = {r for sub in checks for (r, ok) in sub if ok}
            # assign global seqs in rank order, capped by max_pages
            # admissions (queue_manager.py:47-49: depth ≤ max_depth ∧
            # |seen| < max_pages)
            for rank, key, url, host, depth, parent, sid in cands:
                if rank not in admissible or depth > cfg.max_depth:
                    continue
                if self.next_seq >= cfg.max_pages:  # |seen| cap
                    break
                w.inserts.setdefault(sid, []).append(
                    (self.next_seq, depth, url, host, parent, key))
                w.seen_rows.append((key, url, host, depth, self.next_seq,
                                    parent))
                self.next_seq += 1

    def advance(self, w: _Wave) -> Optional[tuple[list, list, int]]:
        """Checkpoint at the wave boundary (R3) and the next wave's pops.
        One ``advance`` per shard inserts this wave's admissions, takes the
        wave-boundary snapshot and stats (post-insert, pre-pop), then pops
        the next wave — budget 0 when no next wave follows — and peeks the
        wave after it (``ahead`` urls, 0 when that wave might not run:
        past ``max_waves`` or the page cap, or under the warc sink, which
        archives every page a task reads). Every ``snapshot_full_every``-th
        wave takes a full snapshot (a new delta base); other waves ship
        only the wave's admitted keys + live queue state. The snapshot and
        stats refs go to the IO thread; the driver waits only on the pops,
        which also surface an insert-contract error (on a last wave, the
        IO thread's get does). Returns ``pop``'s arguments for the next
        wave, None when there is none."""
        cfg = self.cfg
        with self.timed("checkpoint"):
            gen = f"gen-{w.num}"
            full = (self.full_gen is None
                    or w.num % max(1, cfg.snapshot_full_every) == 0)
            if full:
                self.full_gen, self.delta_chain = gen, []
            else:
                self.delta_chain = self.delta_chain + [gen]
            self.wave = w.num + 1
            self.waves_done += 1
            prefetch = not self.stopping()
            budget = (min(cfg.wave_budget, cfg.max_pages - self.pages_success)
                      if prefetch else 0)
            ahead = 0
            if prefetch and cfg.sink != "warc" and (
                    cfg.max_waves is None or self.waves_done + 1 < cfg.max_waves):
                ahead = max(0, min(cfg.wave_budget,
                                   cfg.max_pages - self.pages_success - budget))
            pop_refs, snap_refs, stat_refs, peek_refs = map(list, zip(*[
                s.advance.remote(w.inserts.get(sid, []), full, self.wave,
                                 budget, ahead)
                for sid, s in enumerate(self.shards)]))
            w.refs = (snap_refs, stat_refs)
        return (pop_refs, peek_refs, ahead) if prefetch else None

    def join_io(self) -> None:
        """Wait for the IO thread, if one runs, and raise its error."""
        io, self.io = self.io, None
        if io is not None:
            io.join()
            if self.io_err:
                raise self.io_err[0]

    def persist(self, w: _Wave) -> None:
        """Join the PREVIOUS wave's IO only now — it overlapped this whole
        wave (fetch wait, admission, the next wave's pops) — then write
        this wave's on a background thread overlapped with the next
        wave's fetch+extract. One IO thread at a time keeps the
        generations and the wave log in order."""
        with self.timed("io_join_stall"):
            self.join_io()
        manifest = {"wave": w.num, "next_seq": self.next_seq,
                    "num_shards": self.cfg.num_shards,
                    "gen": f"gen-{w.num}", "full_gen": self.full_gen,
                    "delta_gens": list(self.delta_chain),
                    "pages_success": self.pages_success,
                    "pages_failed": self.pages_failed}
        self.io = threading.Thread(target=self.write_wave, args=(w, manifest),
                                   name=f"raycrawl-wave-io-{w.num}", daemon=True)
        self.io.start()

    def write_wave(self, w: _Wave, manifest: dict) -> None:
        """Wave ``w``'s durable IO: result parquet, seen parquet, frontier
        snapshots, its wave-log line, then the manifest rename — in that
        order, so the manifest only ever names state that is fully on
        disk. Crash-atomic: snapshots land in a fresh generation dir, the
        manifest is temp-written and os.rename'd, THEN generations outside
        the live full+delta chain are removed. An error is kept for the
        next ``join_io``."""
        try:
            with self.timed("io_background"):
                if w.idx is not None:
                    _write_result_wave(self.results_dir, w.num,
                                       w.table.take(w.idx), w.meta_rows)
                if w.seen_rows:
                    _write_seen_wave(self.seen_dir, w.num + 1, w.seen_rows)
                snaps, shard_stats = map(ray.get, w.refs)
                gen_dir = os.path.join(self.ckpt_dir, manifest["gen"])
                os.makedirs(gen_dir, exist_ok=True)
                for i, blob in enumerate(snaps):
                    tmp = os.path.join(gen_dir, f"shard{i}.bin.tmp")
                    with open(tmp, "wb") as f:
                        f.write(blob)
                    os.rename(tmp, os.path.join(gen_dir, f"shard{i}.bin"))
                with open(self.log_path, "a") as f:
                    f.write(json.dumps({
                        "wave": w.num, "popped": len(w.items),
                        "success": manifest["pages_success"],
                        "failed": manifest["pages_failed"],
                        "frontier_depth": sum(st["queued"] for st in shard_stats),
                    }) + "\n")
                self.waves_logged += 1
                tmp = self.manifest_path + ".tmp"
                with open(tmp, "w") as f:
                    json.dump({**manifest, "shard_stats": shard_stats,
                               "waves_logged": self.waves_logged}, f)
                os.rename(tmp, self.manifest_path)
                keep = {manifest["full_gen"], *manifest["delta_gens"]}
                for old in glob.glob(os.path.join(self.ckpt_dir, "gen-*")):
                    if os.path.basename(old) not in keep:
                        shutil.rmtree(old, ignore_errors=True)
        except BaseException as exc:  # surfaced at the next join
            self.io_err.append(exc)

    def outcome(self) -> CrawlOutcome:
        """The crawl's outputs and stats; ends the workers' crawl state."""
        dur = time.time() - self.t0
        shard_stats = ray.get([s.stats.remote() for s in self.shards])
        worker_counters = ray.get([w.end_crawl.remote(self.fetch_token)
                                   for w in self.workers])
        total_dup = sum(st["dup_hits"] for st in shard_stats)
        total_offered = sum(st["offered"] for st in shard_stats)
        done = self.pages_success + self.pages_failed
        stats = {
            "pages_success": self.pages_success,
            "pages_failed": self.pages_failed,
            "total_seen": self.next_seq,
            "waves": self.wave,
            "duration_sec": dur,
            "pages_per_sec": done / dur if dur > 0 else 0.0,
            "dedup_hit_rate": total_dup / total_offered if total_offered else 0.0,
            "robots_blocked": sum(st["robots_blocked"] for st in shard_stats),
            "filter_false_positives": sum(st["filter_false_positives"] or 0
                                          for st in shard_stats),
            "phase_sec": {k: round(v, 3) for k, v in self.phase_sec.items()},
            "shards": shard_stats,
            # summed over the workers: row groups decoded and reused, rows
            # decoded, pages (rows) fetched
            "fetch": {k: sum(c["fetch"][k] for c in worker_counters)
                      for k in FETCH_COUNTERS},
            # summed over the workers: extractor calls, pages they
            # returned, CPU seconds they took
            "extract": {k: sum(c["extract"][k] for c in worker_counters)
                        for k in EXTRACT_COUNTERS},
            "speculation": self.speculation,
        }
        if self.cfg.sink == "warc":
            stats["warc_dir"] = os.path.join(self.out_dir, "warc")
        return CrawlOutcome(results_dir=self.results_dir,
                            seen_dir=self.seen_dir, stats=stats)


def crawl(corpus_path: str, cfg: CrawlConfig) -> CrawlOutcome:
    """Crawl ``cfg.seed_url``'s pages out of the corpus at ``corpus_path``
    until the frontier drains, ``max_pages`` pages ran or ``max_waves``
    waves did. Waves are pipelined: while wave N's IO thread writes its
    results and checkpoint, the worker pool already extracts wave N+1 —
    whose pops ``advance`` returned with wave N's admissions — and the
    pages predicted for wave N+2 (``_WaveLoop.pop``). The predictions
    change no frontier state, so pops, seqs, admissions and checkpoints
    are exactly those of a crawl without them. However the loop ends, the
    IO thread is joined before ``crawl()`` returns or raises."""
    loop = _WaveLoop(corpus_path, cfg)
    try:
        loop.seed_or_resume()
        w = None if loop.stopping() else loop.pop()
        while w is not None:
            if not w.items:
                if sum(ray.get([s.queue_size.remote() for s in loop.shards])) == 0:
                    break  # frontier empty ∧ nothing in flight (Q3 resolution)
                loop.wave += 1  # politeness throttled this wave; advance time
                w = loop.pop()
                continue
            loop.assemble(w, loop.collect(w))
            loop.admit(w)
            refs = loop.advance(w)
            nxt = loop.pop(*refs) if refs else None
            loop.persist(w)
            w = nxt
    finally:
        loop.join_io()
    return loop.outcome()


def _write_result_wave(results_dir: str, wave: int, pages: pa.Table,
                       meta_rows: list[tuple[int, int, str, Optional[str]]]) -> None:
    """Wave ``wave``'s CRAWL_RESULT rows: its (seq, depth, url, parent)
    ``meta_rows``, then the result columns of their ``pages``."""
    _write_wave_file(results_dir, wave, pa.Table.from_arrays(
        [pa.array(c, f.type) for c, f in zip(zip(*meta_rows), CRAWL_RESULT)]
        + [pa.array([wave] * len(meta_rows), pa.int32())]
        + [pages.column(f.name) for f in list(CRAWL_RESULT)[5:]],
        schema=CRAWL_RESULT))


def _write_seen_wave(seen_dir: str, wave: int,
                     rows: list[tuple[bytes, str, str, int, int, Optional[str]]]) -> None:
    _write_wave_file(seen_dir, wave, pa.Table.from_arrays(
        [pa.array(c, f.type) for c, f in zip(zip(*rows), SEEN)], schema=SEEN))


def _write_wave_file(root: str, wave: int, table: pa.Table) -> None:
    # zero-padded so lexicographic file order == wave order — readers
    # reconstructing POP order (e.g. priority-crawl conformance) depend
    # on it past wave 9 (review finding)
    d = os.path.join(root, f"wave={wave:06d}")
    os.makedirs(d, exist_ok=True)
    pq.write_table(table, os.path.join(d, "part-0.parquet"))
