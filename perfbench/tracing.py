"""The traced run: per-layer numbers timed from outside the program.

Nothing here changes ``raycrawl``. Every layer is timed by wrapping calls to
its public functions in spans, in this process, on the workload's own
inputs:

- ``html.*`` and ``links``: each page's ``extract_page`` stages replayed one
  by one; the replay's output must equal ``extract_page``'s;
- ``extract``: the workload's batch kernel (``PageExtractor`` for bulk,
  ``WaveExtractor`` for crawls) over the workload's pages, with its
  ``extract_page`` calls timed as child spans;
- ``urlnorm``: the crawl kernel's ``canonicalize`` calls, from a cold cache;
- ``fetch``: each recorded wave's ``pq.read_table`` calls, with the same
  files and ``url in`` filter the crawl's fetch tasks use;
- ``frontier``: the crawl's pops, admission checks, inserts and snapshots
  replayed through ``FrontierShardLocal``.

``pipeline.*``, ``raydata.*`` and the frontier counts come from the
program's own stats for the traced pass. Layers a workload never calls
report 0.

``trace.overhead_s`` is the traced stage replay's wall minus the same
replay run untraced, page by page. ``trace.replay_mismatches``
counts pages, and frontier replays, that disagree with the program; when it
is not 0 the per-layer times are suspect.

Spans are kept in memory and written out at the end. A span's self time is
its duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import re
import sys
import time
from typing import Any, Optional

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import pyarrow.parquet as pq


_TIMES = ["html.dom.parse", "html.metadata.index", "html.clean.main",
          "html.dom.to_html", "html.markdown.tree", "html.markdown.post",
          "links.extract"]
# name -> unit of every per-layer metric, as listed in BENCHMARK.json
PER_LAYER = {
    **{f"{n}_s": "s" for n in _TIMES},
    "extract.extract_page_s": "s",
    "extract.batch_overhead_s": "s",
    "extract.pages": "count",
    "extract.errors": "count",
    "extract.html_bytes_in": "bytes",
    "extract.markdown_bytes_out": "bytes",
    "raydata.read_s": "s",
    "raydata.map_s": "s",
    "raydata.write_s": "s",
    **{f"pipeline.{p}_s": "s" for p in (
        "pop", "fetch_extract", "assemble", "admission", "checkpoint",
        "io_background", "io_join_stall")},
    "pipeline.waves": "count",
    "fetch.read_s": "s",
    "fetch.rows_read_per_page": "rows/page",
    "fetch.bytes_read_per_page": "bytes/page",
    "frontier.offered": "count",
    "frontier.admitted": "count",
    "frontier.dup_hits": "count",
    "frontier.robots_blocked": "count",
    "frontier.popped": "count",
    "frontier.admit_ratio": "ratio",
    "frontier.check_s": "s",
    "frontier.insert_s": "s",
    "frontier.pop_s": "s",
    "frontier.snapshot_s": "s",
    "frontier.snapshot_bytes": "bytes",
    "frontier.delta_bytes": "bytes",
    "cuckoo.stash_size": "count",
    "cuckoo.false_positives": "count",
    "urlnorm.canonicalize_s": "s",
    "urlnorm.cache_hit_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.replay_mismatches": "count",
}


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, ident: Any = None) -> "_Span":
        return _Span(self, name, ident)

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1])
            if s[3] >= 0:
                parent = self.spans[s[3]][0]
                out[parent] = out.get(parent, 0.0) - (s[2] - s[1])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, ident in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "id": ident}) + "\n")


class NullTracer:
    """The untraced twin of ``Tracer``: spans that record nothing."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, ident: Any = None):
        return self._NULL


class _Span:
    __slots__ = ("tracer", "name", "ident", "index")

    def __init__(self, tracer: Tracer, name: str, ident: Any) -> None:
        self.tracer, self.name, self.ident = tracer, name, ident

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        # a stage span carries its page's (or wave's) id
        ident = self.ident
        if ident is None and parent >= 0:
            ident = t.spans[parent][4]
        t.spans.append([self.name, time.perf_counter(), 0.0, parent, ident])
        t._stack.append(self.index)

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()


# ---------------------------------------------------------------------------
# html + links: extract_page's stages, one span each
# ---------------------------------------------------------------------------

def traced_extract_page(tr: Tracer, url: str, html: str,
                        only_main: bool = True) -> dict[str, Any]:
    """``raycrawl.extract.extract_page`` stage by stage, under spans."""
    from raycrawl.html.clean import clean_tree, find_main_content
    from raycrawl.html.dom import parse_html
    from raycrawl.html.markdown import post_process_markdown, to_markdown_tree
    from raycrawl.html.metadata import (PageIndex, extract_metadata,
                                        extract_structured)
    from raycrawl.links import (extract_links_from_anchors,
                                extract_links_from_tree)

    with tr.span("page", url):
        with tr.span("html.dom.parse"):
            root = parse_html(html)
        with tr.span("html.metadata.index"):
            idx = PageIndex(root)
            metadata = extract_metadata(idx)
            structured = extract_structured(idx)
        with tr.span("links.extract"):
            links = extract_links_from_anchors(idx.anchors, url,
                                               link_filter=None)
        with tr.span("html.clean.main"):
            content_root = root
            if only_main:
                main = find_main_content(root)
                if main is not None:
                    content_root = main.copy()
            clean_tree(content_root)
        with tr.span("html.dom.to_html"):
            html_clean = content_root.to_html()
        with tr.span("html.markdown.tree"):
            tree_md = to_markdown_tree(content_root)
        with tr.span("html.markdown.post"):
            markdown = post_process_markdown(tree_md)
        with tr.span("links.extract"):
            crawl_links = extract_links_from_tree(content_root, url,
                                                  link_filter=None)
    return {"markdown": markdown, "html_clean": html_clean,
            "metadata": metadata, "structured": structured, "links": links,
            "crawl_links": crawl_links}


# ---------------------------------------------------------------------------
# extract: the batch kernel, with extract_page (and canonicalize) as children
# ---------------------------------------------------------------------------

class Wrapped:
    """Swap ``module.<name>`` for a span-recording wrapper for the duration
    of a ``with`` block. The batch kernels look these names up at call
    time, so the wrapper sees every call they make. Outputs are kept in
    ``results`` (keyed by first argument) when one is given; for an
    ``lru_cache`` function, ``calls`` and ``hits`` count its cache hits."""

    def __init__(self, tr: Tracer, module, name: str, span: str,
                 results: Optional[dict] = None) -> None:
        self.tr, self.module, self.name, self.span = tr, module, name, span
        self.results = results
        self.calls = self.hits = 0

    def __enter__(self) -> "Wrapped":
        real = self.orig = getattr(self.module, self.name)
        info = getattr(real, "cache_info", None)
        tr, span, results = self.tr, self.span, self.results

        def wrapper(*args, **kwargs):
            before = info().hits if info else 0
            with tr.span(span, args[0]):
                out = real(*args, **kwargs)
            self.calls += 1
            if info and info().hits > before:
                self.hits += 1
            if results is not None:
                results[args[0]] = out
            return out
        setattr(self.module, self.name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.name, self.orig)


def replay_kernel(tr: Tracer, kernel, pages: pa.Table,
                  batch_size: int) -> pa.Table:
    """Run ``kernel`` over ``pages`` in ``batch_size`` slices, one
    ``extract.batch`` span each."""
    outs = []
    for i in range(0, pages.num_rows, batch_size):
        with tr.span("extract.batch", i // batch_size):
            outs.append(kernel(pages.slice(i, batch_size)))
    return pa.concat_tables(outs)


# ---------------------------------------------------------------------------
# fetch: each wave's filtered parquet reads
# ---------------------------------------------------------------------------

def _rchar() -> int:
    """Bytes this process has read through read(2)/pread(2), page cache
    included (Linux /proc accounting)."""
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("no rchar in /proc/self/io")


def _fetch_tasks(urls: list[str], cfg, files_by_bucket, num_buckets) -> list:
    """The ``(bucket files, urls)`` groups of one wave's fetch tasks, packed
    the way ``raycrawl.pipeline.crawl`` packs them: urls grouped by corpus
    bucket, then split into near-equal tasks, a whole multiple of the pool
    size near ``total / batch_size``, with at least 16 urls each."""
    from raycrawl.urlnorm import host_of, host_shard

    by_bucket: dict = {}
    for u in urls:
        b = host_shard(host_of(u), num_buckets) if num_buckets else None
        by_bucket.setdefault(b, []).append(u)
    total, pool = len(urls), cfg.extract_concurrency
    k = max(1, round(total / max(1, pool * cfg.batch_size)))
    n_tasks = max(1, min(k * pool, -(-total // 16)))
    per_task = -(-total // n_tasks)
    tasks: list[list] = [[] for _ in range(n_tasks)]
    sizes = [0] * n_tasks
    ti = 0
    for b, in_bucket in sorted(by_bucket.items(),
                               key=lambda kv: (kv[0] is None, kv[0])):
        pos = 0
        while pos < len(in_bucket):
            if sizes[ti] >= per_task:
                ti += 1
                continue
            chunk = in_bucket[pos:pos + per_task - sizes[ti]]
            tasks[ti].append((files_by_bucket.get(b, []), chunk))
            sizes[ti] += len(chunk)
            pos += len(chunk)
    return [g for task in tasks for g in task]


def _bucket_files(corpus: str) -> tuple[dict[int, list[str]], int]:
    """Parquet files per host bucket, from the layout ``write_corpus``
    writes, plus the number of buckets."""
    with open(os.path.join(corpus, "_corpus_meta.json")) as f:
        num_buckets = json.load(f)["num_buckets"]
    files = {int(d.rsplit("=", 1)[1]):
             sorted(glob.glob(os.path.join(d, "*.parquet")))
             for d in glob.glob(os.path.join(corpus, "host_bucket=*"))}
    return files, num_buckets


def replay_fetch(tr: Tracer, corpus: str, cfg, waves: list[list[str]]) -> dict:
    files_by_bucket, num_buckets = _bucket_files(corpus)
    rows_read = bytes_read = pages = 0
    for wave, urls in enumerate(waves):
        with tr.span("fetch.wave", wave):
            for paths, chunk in _fetch_tasks(urls, cfg, files_by_bucket,
                                             num_buckets):
                for path in paths:
                    expr = pads.field("url").isin(chunk)
                    frag = pads.ParquetFileFormat().make_fragment(
                        path, filesystem=pafs.LocalFileSystem())
                    frag.ensure_complete_metadata()
                    rows_read += sum(rg.num_rows for piece in
                                     frag.split_by_row_group(expr)
                                     for rg in piece.row_groups)
                    before = _rchar()
                    with tr.span("fetch.read", wave):
                        t = pq.read_table(path, columns=["url", "html"],
                                          filters=[("url", "in", chunk)])
                    bytes_read += _rchar() - before
                    pages += t.num_rows
    return {"fetch.read_s": tr.total("fetch.read"),
            "fetch.rows_read_per_page": rows_read / max(1, pages),
            "fetch.bytes_read_per_page": bytes_read / max(1, pages)}


# ---------------------------------------------------------------------------
# frontier: pops, checks, inserts and snapshots through FrontierShardLocal
# ---------------------------------------------------------------------------

def replay_frontier(tr: Tracer, cfg, corpus_table: pa.Table,
                    links: dict[str, tuple]) -> dict:
    """Re-drive the crawl's frontier calls serially, in the order
    ``raycrawl.pipeline.crawl`` issues them (seed inserts; per wave: pop on
    every shard, merge, push back the surplus, check the wave's candidate
    links, insert the admitted ones, snapshot). ``links`` maps a page url to
    its filtered ``(links, link_keys, link_hosts)`` from the crawl kernel.
    Returns the replayed pop order and the per-call timings."""
    from raycrawl.frontier import FrontierShardLocal
    from raycrawl.urlnorm import host_of, host_shard, normalize_url, url_key

    S = cfg.num_shards
    seeds = [normalize_url(u, u) for u in cfg.seed_url]
    seed_hosts = [host_of(u) for u in seeds]
    seed_host_only = cfg.seed_host_only_robots and len(seeds) == 1
    shards = [FrontierShardLocal(
        i, capacity=cfg.filter_capacity, exact_shadow=cfg.exact_shadow,
        politeness_rate=cfg.politeness_rate,
        politeness_burst=cfg.politeness_burst,
        wave_seconds=cfg.politeness_wave_seconds,
        seed_host_only=seed_host_only, seed_host=seed_hosts[0],
        respect_robots=cfg.respect_robots, priority_fn=cfg.priority_fn)
        for i in range(S)]
    text = dict(zip(corpus_table.column("url").to_pylist(),
                    corpus_table.column("text").to_pylist()))
    if cfg.respect_robots:
        for h in dict.fromkeys(seed_hosts):
            body = text.get(f"https://{h}/robots.txt")
            shards[host_shard(h, S)].load_robots({h: body})

    next_seq = 0
    keys: set[bytes] = set()
    for u, h in zip(seeds, seed_hosts):
        key = url_key(u)
        if key not in keys:
            keys.add(key)
            shards[host_shard(h, S)].insert_batch(
                [(next_seq, 0, u, h, None, key)])
            next_seq += 1

    order: list[tuple[int, int, str]] = []
    snapshot_bytes = delta_bytes = 0
    wave = 0
    full_taken = False
    while len(order) < cfg.max_pages:
        budget = min(cfg.wave_budget, cfg.max_pages - len(order))
        with tr.span("frontier.pop", wave):
            pops = [s.pop_batch(wave, budget) for s in shards]
            merged = sorted([it for sub in pops for it in sub],
                            key=lambda x: (x[0], x[1]))
            items, surplus = merged[:budget], merged[budget:]
            back: dict[int, list] = {}
            for it in surplus:
                back.setdefault(host_shard(host_of(it[3]), S), []).append(it)
            for sid, its in back.items():
                shards[sid].push_back(its)
        if not items:
            if sum(s.queue_size() for s in shards) == 0:
                break
            wave += 1
            continue
        cands = []
        for _prio, seq, depth, url, _parent in items:
            order.append((seq, depth, url))
            if depth < cfg.max_depth:
                for link, key, host in zip(*links.get(url, ((), (), ()))):
                    cands.append((len(cands), key, link, host, depth + 1, url))
        by_shard: dict[int, list] = {}
        for rank, key, link, host, _d, _p in cands:
            by_shard.setdefault(host_shard(host, S), []).append(
                (rank, key, link, host))
        with tr.span("frontier.check", wave):
            admissible = {r for sid, its in by_shard.items()
                          for r, ok in shards[sid].check_batch(its) if ok}
        inserts: dict[int, list] = {}
        for rank, key, link, host, d, parent in cands:
            if rank not in admissible or d > cfg.max_depth:
                continue
            if next_seq >= cfg.max_pages:
                break
            inserts.setdefault(host_shard(host, S), []).append(
                (next_seq, d, link, host, parent, key))
            next_seq += 1
        with tr.span("frontier.insert", wave):
            for sid, its in inserts.items():
                shards[sid].insert_batch(its)
        full = not full_taken or wave % max(1, cfg.snapshot_full_every) == 0
        with tr.span("frontier.snapshot", wave):
            blobs = [s.snapshot() if full else s.snapshot_delta()
                     for s in shards]
        if full:
            full_taken = True
            snapshot_bytes += sum(len(b) for b in blobs)
        else:
            delta_bytes += sum(len(b) for b in blobs)
        wave += 1
    return {"order": order,
            "frontier.check_s": tr.total("frontier.check"),
            "frontier.insert_s": tr.total("frontier.insert"),
            "frontier.pop_s": tr.total("frontier.pop"),
            "frontier.snapshot_s": tr.total("frontier.snapshot"),
            "frontier.snapshot_bytes": snapshot_bytes,
            "frontier.delta_bytes": delta_bytes}


# ---------------------------------------------------------------------------
# Ray Data operator wall from ds.stats()
# ---------------------------------------------------------------------------

_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP_RE = re.compile(r"^Operator \d+ (?P<name>[^:]+):", re.M)
_WALL_RE = re.compile(r"Remote wall time: .*?(?P<v>[\d.]+)(?P<u>us|ms|s) total")


def raydata_walls(stats: str) -> dict[str, float]:
    """Summed remote wall time of the read, map and write operators."""
    out = {"raydata.read_s": 0.0, "raydata.map_s": 0.0, "raydata.write_s": 0.0}
    heads = list(_OP_RE.finditer(stats))
    for i, m in enumerate(heads):
        body = stats[m.end():heads[i + 1].start() if i + 1 < len(heads) else None]
        wall = _WALL_RE.search(body)
        if wall is None:
            continue
        sec = float(wall.group("v")) * _UNITS[wall.group("u")]
        name = m.group("name")
        if "Read" in name:
            out["raydata.read_s"] += sec
        elif "Write" in name:
            out["raydata.write_s"] += sec
        else:
            out["raydata.map_s"] += sec
    return out


def pipeline_metrics(stats: dict) -> dict[str, float]:
    out = {f"pipeline.{k}_s": v for k, v in stats["phase_sec"].items()}
    out["pipeline.waves"] = stats["waves"]
    shards = stats["shards"]

    def total(k: str) -> int:
        return sum(s[k] for s in shards)
    out.update({
        "frontier.offered": total("offered"),
        "frontier.admitted": total("admitted"),
        "frontier.dup_hits": total("dup_hits"),
        "frontier.robots_blocked": total("robots_blocked"),
        "frontier.popped": total("popped"),
        "frontier.admit_ratio": (total("admitted") / total("offered")
                                 if total("offered") else 0.0),
        "cuckoo.stash_size": total("stash_size"),
        "cuckoo.false_positives": stats["filter_false_positives"],
    })
    return out


# ---------------------------------------------------------------------------
# all layers for one traced pass
# ---------------------------------------------------------------------------

def layer_metrics(w, corpus: str, traced: dict, spans_path: str) -> dict:
    """Every per-layer metric for one traced pass of workload ``w``; layers
    the workload never calls stay 0. ``traced`` is the driver's record of
    the pass. Writes the spans to ``spans_path``."""
    import raycrawl.extract
    import raycrawl.pipeline
    from raycrawl.pipeline import CrawlOutcome, WaveExtractor
    from raycrawl.urlnorm import canonicalize, host_of, normalize_url

    from workloads import load_corpus

    tr = Tracer()
    table = load_corpus(corpus)
    m: dict = dict.fromkeys(PER_LAYER, 0)
    mismatches = 0
    if w.is_crawl:
        cfg = w.crawl_config(traced["out_dir"])
        outcome = CrawlOutcome(os.path.join(traced["out_dir"], "results"),
                               os.path.join(traced["out_dir"], "seen"), {})
        res = outcome.results().sort_by([("wave", "ascending"),
                                         ("seq", "ascending")])
        row_of = {u: i for i, u in enumerate(table.column("url").to_pylist())}
        pages = table.select(["url", "html"]).take(
            [row_of[u] for u in res.column("url").to_pylist()])
        seed_hosts = frozenset(host_of(normalize_url(u, u)) for u in cfg.seed_url)
        kernel = WaveExtractor(seed_hosts, cfg.exclude_patterns,
                               cfg.include_patterns, cfg.only_main)
        module, batch_size = raycrawl.pipeline, cfg.batch_size
    else:
        pages = table.select(["url", "warc_ts", "html"])
        kernel = raycrawl.extract.PageExtractor()
        module, batch_size = raycrawl.extract, 64

    expected: dict = {}
    canon = Wrapped(tr, module, "canonicalize", "urlnorm.canonicalize")
    canonicalize.cache_clear()  # a fresh worker process starts cold
    with Wrapped(tr, module, "extract_page", "extract.extract_page", expected), \
            (canon if w.is_crawl else contextlib.nullcontext()):
        out = replay_kernel(tr, kernel, pages, batch_size)
    untraced = tr.total("extract.extract_page")
    m["extract.extract_page_s"] = untraced
    m["extract.batch_overhead_s"] = tr.total("extract.batch") - untraced
    m["extract.pages"] = pages.num_rows
    m["extract.errors"] = sum(1 for s in out.column("status_code").to_pylist()
                              if s != 200)
    m["extract.html_bytes_in"] = sum(len(h) for h in
                                     pages.column("html").to_pylist())
    m["extract.markdown_bytes_out"] = sum(
        len(md.encode()) for md in out.column("markdown").to_pylist())

    # each page is replayed traced and untraced, alternating which goes
    # first, so drift and order effects cancel
    null, traced_s, untraced_s = NullTracer(), 0.0, 0.0
    for i, (url, html) in enumerate(zip(pages.column("url").to_pylist(),
                                        pages.column("html").to_pylist())):
        text = html.decode("utf-8", errors="replace")
        for tracer in ((tr, null) if i % 2 else (null, tr)):
            t0 = time.perf_counter()
            got = traced_extract_page(tracer, url, text)
            if tracer is tr:
                traced_s += time.perf_counter() - t0
                mismatches += got != expected[url]
            else:
                untraced_s += time.perf_counter() - t0
    for name in _TIMES:
        m[f"{name}_s"] = tr.total(name)
    m["trace.overhead_s"] = traced_s - untraced_s

    if w.is_crawl:
        m.update({k: v for k, v in pipeline_metrics(traced["stats"]).items()
                  if k in PER_LAYER})
        m["urlnorm.canonicalize_s"] = tr.total("urlnorm.canonicalize")
        m["urlnorm.cache_hit_ratio"] = canon.hits / max(1, canon.calls)
        waves: dict = {}
        for u, wave in zip(res.column("url").to_pylist(),
                           res.column("wave").to_pylist()):
            waves.setdefault(wave, []).append(u)
        m.update(replay_fetch(tr, corpus, cfg,
                              [waves[k] for k in sorted(waves)]))
        links = {u: (ls, ks, hs) for u, ls, ks, hs in zip(
            out.column("url").to_pylist(), out.column("links").to_pylist(),
            out.column("link_keys").to_pylist(),
            out.column("link_hosts").to_pylist())}
        fr = replay_frontier(tr, cfg, table, links)
        recorded = list(zip(res.column("seq").to_pylist(),
                            res.column("depth").to_pylist(),
                            res.column("url").to_pylist()))
        if fr.pop("order") != recorded:
            mismatches += 1
            _log("frontier replay diverged from the recorded crawl")
        m.update(fr)
    else:
        m.update(raydata_walls(traced["ds_stats"]))
    if mismatches:
        _log(f"{mismatches} replay mismatches: per-layer times are suspect")
    m["trace.replay_mismatches"] = mismatches
    m["trace.spans"] = len(tr.spans)

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tr.dump(spans_path)
    self_times = tr.self_times()
    _log("self time by span: " + ", ".join(
        f"{k} {v:.3f}s" for k, v in sorted(self_times.items(),
                                            key=lambda kv: -kv[1])))
    return m


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
