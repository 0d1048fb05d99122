"""Crawl conformance: sharded Ray frontier vs the single-threaded oracle.

The oracle (raycrawl/oracle.py) is the executable spec of the reference BFS
(crawler_service.py:91-184 + queue_manager.py:34-97 with Q1-Q5 resolutions);
the Ray engine must reproduce its crawl order, seen set and markdown bytes.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pyarrow.parquet as pq
import pytest

from raycrawl.fixtures import cached_corpus, feature_corpus
from raycrawl.gen_golden import CRAWL_KW, GOLDEN_DIR, SEED, T2
from raycrawl.oracle import crawl_oracle
from raycrawl.pipeline import CrawlConfig, CrawlOutcome, crawl
from raycrawl.urlnorm import canonicalize


def wave_log(out_dir):
    """A crawl's per-wave stats: the lines of its wave log that its
    checkpoint manifest counts."""
    with open(os.path.join(out_dir, "checkpoint", "manifest.json")) as f:
        n = json.load(f)["waves_logged"]
    with open(os.path.join(out_dir, "checkpoint", "waves.jsonl")) as f:
        return [json.loads(line) for line in f.readlines()[:n]]


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    corpus_dir = cached_corpus("feature", **T2)
    out_dir = str(tmp_path_factory.mktemp("crawl"))
    cfg = CrawlConfig(seed_url=SEED, num_shards=4, wave_budget=16,
                      extract_concurrency=2, out_dir=out_dir, **CRAWL_KW)
    return crawl(corpus_dir, cfg)


def test_crawl_order_matches_golden(outcome):
    golden = pq.read_table(os.path.join(GOLDEN_DIR, "expected_crawl_order.parquet"))
    got = outcome.results()
    assert got.num_rows == golden.num_rows
    for col in ("seq", "depth", "url", "parent_url"):
        assert got.column(col).to_pylist() == golden.column(col).to_pylist(), col


def test_crawl_markdown_bytes_match_golden(outcome):
    golden = pq.read_table(os.path.join(GOLDEN_DIR, "expected_crawl_order.parquet"))
    got = outcome.results()
    exp = dict(zip(golden.column("url").to_pylist(),
                   golden.column("markdown").to_pylist()))
    for url, md in zip(got.column("url").to_pylist(),
                       got.column("markdown").to_pylist()):
        assert md == exp[url], url


def test_seen_set_matches_golden(outcome):
    golden = pq.read_table(os.path.join(GOLDEN_DIR, "expected_seen.parquet"))
    seen = outcome.seen()
    got = {(canonicalize(u), d, s) for u, d, s in
           zip(seen.column("url").to_pylist(), seen.column("depth").to_pylist(),
               seen.column("seq").to_pylist())}
    exp = {(canonicalize(u), d, s) for u, d, s in
           zip(golden.column("url").to_pylist(),
               golden.column("depth").to_pylist(),
               golden.column("seq").to_pylist())}
    assert got == exp
    assert outcome.stats["filter_false_positives"] == 0


def test_bfs_monotone_and_max_depth(outcome):
    got = outcome.results()
    depths = got.column("depth").to_pylist()
    assert depths == sorted(depths)  # BFS: depth non-decreasing in seq order
    assert max(depths) <= CRAWL_KW["max_depth"]


def test_wave_size_invariance():
    """Admission order is invariant to wave budget (Q2 resolution)."""
    corpus_dir = cached_corpus("feature", n_hosts=2, pages_per_host=24)
    runs = []
    for budget in (1, 7, 64):
        cfg = CrawlConfig(seed_url=SEED, max_depth=3, max_pages=30,
                          exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                          num_shards=3, wave_budget=budget,
                          out_dir=f"/tmp/raycrawl_test_wsi_{budget}")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        out = crawl(corpus_dir, cfg)
        runs.append(out.results().select(["seq", "depth", "url"]).to_pylist())
    assert runs[0] == runs[1] == runs[2]


def test_max_pages_cap():
    corpus_dir = cached_corpus("feature", **T2)
    corpus = feature_corpus(**T2)
    cfg = CrawlConfig(seed_url=SEED, max_depth=3, max_pages=12,
                      exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                      num_shards=4, wave_budget=5,
                      out_dir="/tmp/raycrawl_test_cap")
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    out = crawl(corpus_dir, cfg)
    oracle = crawl_oracle(corpus, SEED, max_depth=3, max_pages=12,
                          exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                          wave_budget=5)
    got = out.results().select(["seq", "depth", "url"]).to_pylist()
    exp = [{"seq": p.seq, "depth": p.depth, "url": p.url} for p in oracle.pages]
    assert got == exp
    assert out.stats["total_seen"] <= 12


def test_robots_disallow_enforced():
    """Seed on h1 (robots disallows /private/): private URLs never seen."""
    corpus_dir = cached_corpus("feature", **T2)
    cfg = CrawlConfig(seed_url="https://h1.example/d0/p0.html", max_depth=4,
                      max_pages=200,
                      exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                      num_shards=4, out_dir="/tmp/raycrawl_test_robots")
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    out = crawl(corpus_dir, cfg)
    seen_urls = out.seen().column("url").to_pylist()
    assert any("/d1/" in u for u in seen_urls)
    assert not any("/private/" in u for u in seen_urls)
    assert out.stats["robots_blocked"] > 0
    # corpus-level sanity: private pages exist on h1
    corpus = feature_corpus(**T2)
    assert any("h1.example/private/" in u for u in corpus.column("url").to_pylist())


def test_politeness_budget_bounds_per_host_pops():
    corpus_dir = cached_corpus("feature", **T2)
    cfg = CrawlConfig(seed_url=SEED, max_depth=3, max_pages=40,
                      exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                      num_shards=2, wave_budget=64,
                      politeness_rate=2.0, politeness_burst=2.0,
                      out_dir="/tmp/raycrawl_test_polite")
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    out = crawl(corpus_dir, cfg)
    res = out.results()
    # single-host crawl at 2 pops/host/wave → every wave has ≤2 pages
    waves = res.column("wave").to_pylist()
    from collections import Counter

    counts = Counter(waves)
    assert max(counts.values()) <= 2
    assert res.num_rows == min(40, 51)  # same final set, just slower
    # throttling must not reorder: seq order still BFS-monotone
    depths = res.column("depth").to_pylist()
    assert depths == sorted(depths)


def test_resume_from_checkpoint():
    corpus_dir = cached_corpus("feature", **T2)
    out_dir = "/tmp/raycrawl_test_resume"
    shutil.rmtree(out_dir, ignore_errors=True)
    base = dict(seed_url=SEED, num_shards=4, wave_budget=8, out_dir=out_dir,
                **CRAWL_KW)
    partial = crawl(corpus_dir, CrawlConfig(max_waves=2, **base))
    assert partial.stats["pages_success"] < 51
    assert [w["wave"] for w in wave_log(out_dir)] == [0, 1]
    resumed = crawl(corpus_dir, CrawlConfig(resume=True, **base))
    golden = pq.read_table(os.path.join(GOLDEN_DIR, "expected_crawl_order.parquet"))
    got = resumed.results()
    assert got.column("url").to_pylist() == golden.column("url").to_pylist()
    assert got.column("seq").to_pylist() == golden.column("seq").to_pylist()
    # the resumed run keeps the waves logged before the preemption: its
    # log equals an uninterrupted run's, wave for wave
    whole_dir = out_dir + "_whole"
    crawl(corpus_dir, CrawlConfig(**{**base, "out_dir": whole_dir}))
    whole = wave_log(whole_dir)
    assert [w["wave"] for w in whole] == list(range(len(whole)))
    assert wave_log(out_dir) == whole
    # the manifest only counts the log's lines: no per-wave list in it
    with open(os.path.join(whole_dir, "checkpoint", "manifest.json")) as f:
        m = json.load(f)
    assert m["waves_logged"] == len(whole) and "waves" not in m


@pytest.mark.parametrize("num_shards", [2, 8])
def test_resume_with_changed_num_shards_raises(tmp_path, num_shards):
    """A checkpoint holds one frontier snapshot per shard, and a url's
    shard depends on the shard count: a resume under another
    ``num_shards`` raises and names both counts, and leaves the
    checkpoint as it was for a resume under the right one."""
    corpus_dir = cached_corpus("feature", **T2)
    base = dict(seed_url=SEED, wave_budget=8, out_dir=str(tmp_path / "out"),
                **CRAWL_KW)
    crawl(corpus_dir, CrawlConfig(num_shards=4, max_waves=2, **base))
    with pytest.raises(ValueError, match=(
            f"num_shards=4; this crawl has num_shards={num_shards}$")):
        crawl(corpus_dir, CrawlConfig(num_shards=num_shards, resume=True,
                                      **base))
    resumed = crawl(corpus_dir, CrawlConfig(num_shards=4, resume=True,
                                            **base))
    oracle = crawl_oracle(feature_corpus(**T2), SEED, wave_budget=8,
                          **CRAWL_KW)
    assert _pop_order(resumed) == oracle.order()


def test_resume_reads_a_manifest_that_holds_the_wave_stats(tmp_path,
                                                          uninterrupted):
    """A checkpoint of the older layout kept every wave's stats in the
    manifest's ``waves`` list and had no wave log. A resume from it
    carries those stats into the log and ends as an uninterrupted run."""
    corpus_dir = cached_corpus("feature", **T2)
    cfg = _kill_config("bfs")
    out_dir = str(tmp_path / "old")
    crawl(corpus_dir, CrawlConfig(out_dir=out_dir, max_waves=3, **cfg))
    ckpt = os.path.join(out_dir, "checkpoint")
    with open(os.path.join(ckpt, "manifest.json")) as f:
        m = json.load(f)
    m["waves"] = wave_log(out_dir)
    del m["waves_logged"]
    with open(os.path.join(ckpt, "manifest.json"), "w") as f:
        json.dump(m, f)
    os.remove(os.path.join(ckpt, "waves.jsonl"))
    resumed = crawl(corpus_dir, CrawlConfig(out_dir=out_dir, resume=True,
                                            **cfg))
    whole, whole_log = uninterrupted("bfs")
    assert resumed.results().equals(whole.results())
    assert wave_log(out_dir) == whole_log


def test_multi_seed_crawl_matches_oracle():
    corpus_dir = cached_corpus("feature", **T2)
    corpus = feature_corpus(**T2)
    seeds = ["https://h0.example/d0/p0.html", "https://h2.example/d0/p0.html"]
    kw = dict(max_depth=2, max_pages=40,
              exclude_patterns=[r"/skip/", r"\.(jpg|png)$"])
    cfg = CrawlConfig(seed_url=seeds, num_shards=4, wave_budget=16,
                      out_dir="/tmp/raycrawl_test_multiseed", **kw)
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    out = crawl(corpus_dir, cfg)
    oracle = crawl_oracle(corpus, seeds, wave_budget=16, **kw)
    got = out.results().select(["seq", "depth", "url"]).to_pylist()
    exp = [{"seq": p.seq, "depth": p.depth, "url": p.url} for p in oracle.pages]
    assert got == exp
    hosts = {u.split("/")[2] for u in out.seen().column("url").to_pylist()}
    assert hosts == {"h0.example", "h2.example"}


def test_multi_seed_crawl_predicts_the_merge_surplus():
    """Two seed hosts on different shards and a wave budget of 4: every
    shard pops 4, and the merge pushes the surplus back after the shards
    peeked. The next wave pops that surplus, so the prediction includes
    it: no page is extracted in vain, and the crawl still matches the
    oracle."""
    corpus_dir = cached_corpus("feature", **T2)
    seeds = ["https://h0.example/d0/p0.html", "https://h2.example/d0/p0.html"]
    kw = dict(max_depth=2, max_pages=40,
              exclude_patterns=[r"/skip/", r"\.(jpg|png)$"])
    cfg = CrawlConfig(seed_url=seeds, num_shards=4, wave_budget=4,
                      out_dir="/tmp/raycrawl_test_multiseed_surplus", **kw)
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    out = crawl(corpus_dir, cfg)
    oracle = crawl_oracle(feature_corpus(**T2), seeds, wave_budget=4, **kw)
    got = out.results().select(["seq", "depth", "url"]).to_pylist()
    assert got == [{"seq": p.seq, "depth": p.depth, "url": p.url}
                   for p in oracle.pages]
    spec = out.stats["speculation"]
    assert spec["wasted_pages"] == 0 and spec["hit_pages"] > 0
    assert spec["hit_pages"] + spec["extra_pages"] == len(got)


def test_skewed_host_politeness_surfaces_frontier_depth():
    """Skew (one host owns most URLs) + per-host politeness: the hot host's
    backlog shows up as frontier depth over many waves — never a deadlock —
    while small hosts drain quickly (SURVEY.md R4)."""
    corpus_dir = cached_corpus("feature", n_hosts=4, host_sizes=[120, 10, 10, 10],
                               with_private=False)
    seeds = [f"https://h{i}.example/d0/p0.html" for i in range(4)]
    out_dir = "/tmp/raycrawl_test_skew"
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = CrawlConfig(seed_url=seeds, max_depth=10, max_pages=500,
                      exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                      num_shards=4, wave_budget=64,
                      politeness_rate=4.0, politeness_burst=4.0,
                      out_dir=out_dir)
    out = crawl(corpus_dir, cfg)
    assert out.stats["pages_success"] == 150  # 120 + 3×10, no deadlock
    waves = wave_log(out_dir)
    # hot-host backlog visible mid-crawl, fully drained at the end
    assert max(w["frontier_depth"] for w in waves) > 20
    assert waves[-1]["frontier_depth"] == 0
    # politeness bound: ≤ 4 pops per host per wave ⇒ ≥ 120/4 = 30 waves
    assert out.stats["waves"] >= 30


def test_crawl_delay_override_matches_oracle():
    """ST6: a robots Crawl-delay maps to a per-host rate override
    (wave_seconds/delay, burst >= 1). The sharded engine's PROCESSING
    order — sort by (wave, seq) — must equal the serial model's page
    sequence, which is sensitive to exactly when each throttled pop
    happens."""
    import datetime as dt

    import pyarrow as pa

    from raycrawl.fixtures import write_corpus
    from raycrawl.oracle import crawl_oracle
    from raycrawl.schema import PAGES

    def page(url, links, body="some body text here"):
        anchors = "".join('<a href="%s">l</a>' % l for l in links)
        html = ("<html><head><title>t</title></head><body><main>"
                "<h1>%s</h1><p>%s</p><p>%s</p></main></body></html>"
                % (url, body, anchors))
        return url, html, body

    rows = [
        ("https://slow.example/robots.txt",
         "<html><body><pre>User-agent: *\nCrawl-delay: 2\n</pre></body></html>",
         "User-agent: *\nCrawl-delay: 2\n"),
    ]
    # slow host: a chain so pops are spread over waves; fast host: a star
    for i in range(6):
        nxt = [f"/p{i+1}.html"] if i < 5 else []
        rows.append(page(f"https://slow.example/p{i}.html", nxt))
    rows.append(page("https://fast.example/p0.html",
                     [f"/q{j}.html" for j in range(1, 5)]))
    for j in range(1, 5):
        rows.append(page(f"https://fast.example/q{j}.html", []))

    t0 = dt.datetime(2025, 1, 1)
    tbl = pa.Table.from_arrays(
        [pa.array([r[0] for r in rows]),
         pa.array([t0] * len(rows), type=pa.timestamp("us")),
         pa.array([r[1].encode() for r in rows], type=pa.binary()),
         pa.array([r[2] for r in rows]),
         pa.array(["en"] * len(rows))], schema=PAGES)
    corpus_dir = write_corpus(tbl, "/tmp/raycrawl_test_crawldelay_corpus")

    seeds = ["https://slow.example/p0.html", "https://fast.example/p0.html"]
    kw = dict(max_depth=8, max_pages=30, respect_robots=True)
    cfg = CrawlConfig(seed_url=seeds, num_shards=2, wave_budget=16,
                      out_dir="/tmp/raycrawl_test_crawldelay", **kw)
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    out = crawl(corpus_dir, cfg)
    orc = crawl_oracle(tbl, seeds, wave_budget=16, **kw)

    res = out.results().select(["wave", "seq", "depth", "url"]).to_pylist()
    got = [(r["seq"], r["depth"], r["url"])
           for r in sorted(res, key=lambda r: (r["wave"], r["seq"]))]
    exp = [(p.seq, p.depth, p.url) for p in orc.pages]
    assert got == exp
    # the slow host really was throttled: >= 2 waves between its pops
    slow_waves = sorted(r["wave"] for r in res if "slow.example" in r["url"])
    assert all(b - a >= 2 for a, b in zip(slow_waves, slow_waves[1:]))
    assert len(slow_waves) == 6


def test_priority_crawl_matches_oracle():
    """Best-first frontier: pop order (priority_fn(url), seq) instead of
    BFS (depth, seq). The engine's crawl order AND crawled set must match
    the serial oracle's priority branch exactly — and differ from BFS,
    since the max_pages budget cuts off a different subtree."""
    from raycrawl.gen_golden import url_priority

    corpus_dir = cached_corpus("feature", **T2)
    corpus = feature_corpus(**T2)
    seeds = ["https://h0.example/d0/p0.html"]
    kw = dict(max_depth=3, max_pages=40,
              exclude_patterns=[r"/skip/", r"\.(jpg|png)$"])
    cfg = CrawlConfig(seed_url=seeds, num_shards=4, wave_budget=16,
                      out_dir="/tmp/raycrawl_test_priority",
                      priority_fn=url_priority, **kw)
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    out = crawl(corpus_dir, cfg)
    oracle = crawl_oracle(corpus, seeds, wave_budget=16,
                          priority_fn=url_priority, **kw)
    # results() returns seq order (a public-API invariant); compare the
    # crawled set + seq/depth assignment there, and the actual POP order
    # against the raw wave files (within a wave rows are written in pop
    # order, waves are ordered)
    got = out.results().select(["seq", "depth", "url"]).to_pylist()
    exp = sorted(({"seq": p.seq, "depth": p.depth, "url": p.url}
                  for p in oracle.pages), key=lambda r: r["seq"])
    assert got == exp
    assert len(got) == 40
    import glob as _glob

    import pyarrow.parquet as _pq

    pop_urls = []
    for f in sorted(_glob.glob(os.path.join(out.results_dir,
                                            "wave=*", "*.parquet"))):
        pop_urls.extend(_pq.read_table(f, columns=["url"])
                        .column("url").to_pylist())
    assert pop_urls == [p.url for p in oracle.pages]
    # genuinely best-first: pop depths interleave (BFS would be monotone)
    oracle_depths = [p.depth for p in oracle.pages]
    assert oracle_depths != sorted(oracle_depths)
    # and the crawled SET differs from the BFS run under the same budget
    bfs = crawl_oracle(corpus, seeds, wave_budget=16, **kw)
    assert {r["url"] for r in got} != {p.url for p in bfs.pages}


def test_priority_crawl_resumes_from_checkpoint():
    """Preempt a best-first crawl after 2 waves and resume: the combined
    run must equal the uninterrupted serial-oracle priority crawl — the
    snapshot round-trips the (priority, seq, depth, …) heap entries."""
    from raycrawl.gen_golden import url_priority

    corpus_dir = cached_corpus("feature", **T2)
    corpus = feature_corpus(**T2)
    out_dir = "/tmp/raycrawl_test_prio_resume"
    shutil.rmtree(out_dir, ignore_errors=True)
    kw = dict(max_depth=3, max_pages=40,
              exclude_patterns=[r"/skip/", r"\.(jpg|png)$"])
    base = dict(seed_url="https://h0.example/d0/p0.html", num_shards=4,
                wave_budget=8, out_dir=out_dir, priority_fn=url_priority,
                respect_robots=False, **kw)
    partial = crawl(corpus_dir, CrawlConfig(max_waves=2, **base))
    assert partial.stats["pages_success"] < 40
    resumed = crawl(corpus_dir, CrawlConfig(resume=True, **base))
    oracle = crawl_oracle(corpus, ["https://h0.example/d0/p0.html"],
                          wave_budget=8, priority_fn=url_priority,
                          respect_robots=False, **kw)
    got = (resumed.results().select(["seq", "depth", "url"])
           .sort_by([("seq", "ascending")]).to_pylist())
    exp = sorted(({"seq": p.seq, "depth": p.depth, "url": p.url}
                  for p in oracle.pages), key=lambda r: r["seq"])
    assert got == exp
    assert len(got) == 40


class _Killed(Exception):
    """Planted in a crawl to stop it mid-wave."""


# _WaveLoop's per-wave phases, in the order a wave runs them
_PHASES = ("collect", "assemble", "admit", "advance", "pop", "persist")


def _kill_config(mode):
    """A crawl of 7+ waves: BFS under the golden config, or best-first."""
    from raycrawl.gen_golden import url_priority

    if mode == "bfs":
        return dict(seed_url=SEED, num_shards=4, wave_budget=8, **CRAWL_KW)
    return dict(seed_url=SEED, num_shards=4, wave_budget=8, max_depth=3,
                max_pages=40, exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
                priority_fn=url_priority, respect_robots=False)


def _pop_order(out):
    """(seq, depth, url) in pop order: wave files in wave order, and each
    file's rows as its wave popped them."""
    import glob

    rows = []
    for f in sorted(glob.glob(os.path.join(out.results_dir, "wave=*",
                                           "*.parquet"))):
        t = pq.read_table(f, columns=["seq", "depth", "url"])
        rows += [(r["seq"], r["depth"], r["url"]) for r in t.to_pylist()]
    return rows


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """``get(mode)``: the outcome and wave log of an uninterrupted crawl
    under ``_kill_config(mode)``, run once per module."""
    runs = {}

    def get(mode):
        if mode not in runs:
            out_dir = str(tmp_path_factory.mktemp(f"whole_{mode}"))
            out = crawl(cached_corpus("feature", **T2),
                        CrawlConfig(out_dir=out_dir, **_kill_config(mode)))
            runs[mode] = (out, wave_log(out_dir))
        return runs[mode]
    return get


@pytest.mark.parametrize("phase", _PHASES)
@pytest.mark.parametrize("mode", ["bfs", "priority"])
def test_kill_at_phase_boundary_then_resume(monkeypatch, tmp_path,
                                            uninterrupted, mode, phase):
    """A crawl dies as ``phase`` starts on wave 2, a delta-snapshot wave
    (``pop`` of wave 2 runs inside wave 1, after its ``advance``). A
    resume in the same process ends exactly where an uninterrupted crawl
    does: results, seen set, per-wave log and the oracle's pop order."""
    from raycrawl import pipeline

    corpus_dir = cached_corpus("feature", **T2)
    cfg = _kill_config(mode)
    out_dir = str(tmp_path / "killed")
    real = getattr(pipeline._WaveLoop, phase)

    def killed(self, *args):
        wave = args[0] if args and isinstance(args[0], pipeline._Wave) else None
        if (self.wave if wave is None else wave.num) == 2:
            raise _Killed(phase)
        return real(self, *args)

    with monkeypatch.context() as m:
        m.setattr(pipeline._WaveLoop, phase, killed)
        with pytest.raises(_Killed):
            crawl(corpus_dir, CrawlConfig(out_dir=out_dir, **cfg))
    with open(os.path.join(out_dir, "checkpoint", "manifest.json")) as f:
        assert json.load(f)["wave"] < 2
    resumed = crawl(corpus_dir, CrawlConfig(out_dir=out_dir, resume=True,
                                            **cfg))
    whole, whole_log = uninterrupted(mode)
    assert resumed.results().equals(whole.results())
    assert resumed.seen().equals(whole.seen())
    assert wave_log(out_dir) == whole_log
    oracle = crawl_oracle(feature_corpus(**T2), cfg["seed_url"],
                          **{k: v for k, v in cfg.items()
                             if k not in ("seed_url", "num_shards")})
    assert _pop_order(resumed) == oracle.order()
    seen = resumed.seen()
    assert ({(canonicalize(u), d, s) for u, d, s in zip(
        seen.column("url").to_pylist(), seen.column("depth").to_pylist(),
        seen.column("seq").to_pylist())}
        == {(canonicalize(u), d, s) for u, d, s, _ in oracle.seen})


def test_raising_crawl_joins_its_io_thread(monkeypatch, tmp_path):
    """With the seen write slowed, a raise in ``wave_table`` on a later
    wave finds a wave's IO thread still writing. ``crawl()`` joins it
    before the error propagates: no thread the crawl started is left
    alive, the manifest names only state that is fully on disk, and a
    resume from it matches the oracle."""
    import threading
    import time

    from raycrawl import pipeline

    corpus_dir = cached_corpus("feature", **T2)
    cfg = _kill_config("bfs")
    out_dir = str(tmp_path / "out")
    write_seen, wave_table = pipeline._write_seen_wave, pipeline.wave_table
    calls = []

    def slow_seen(*args):
        time.sleep(0.3)
        write_seen(*args)

    def failing_table(buf):
        calls.append(buf)
        if len(calls) == 4:
            raise _Killed("wave_table")
        return wave_table(buf)

    monkeypatch.setattr(pipeline, "_write_seen_wave", slow_seen)
    monkeypatch.setattr(pipeline, "wave_table", failing_table)
    before = set(threading.enumerate())
    with pytest.raises(_Killed):
        crawl(corpus_dir, CrawlConfig(out_dir=out_dir, **cfg))
    assert [t for t in threading.enumerate()
            if t not in before and t.is_alive()] == []
    ckpt = os.path.join(out_dir, "checkpoint")
    with open(os.path.join(ckpt, "manifest.json")) as f:
        m = json.load(f)
    assert m["wave"] >= 1
    for gen in (m["full_gen"], *m["delta_gens"]):
        for i in range(cfg["num_shards"]):
            assert os.path.exists(os.path.join(ckpt, gen, f"shard{i}.bin"))
    assert [w["wave"] for w in wave_log(out_dir)] == list(range(m["wave"] + 1))
    seen = CrawlOutcome("", os.path.join(out_dir, "seen"), {}).seen()
    assert seen.column("seq").to_pylist() == list(range(m["next_seq"]))
    monkeypatch.undo()
    resumed = crawl(corpus_dir, CrawlConfig(out_dir=out_dir, resume=True,
                                            **cfg))
    oracle = crawl_oracle(feature_corpus(**T2), SEED, wave_budget=8,
                          **CRAWL_KW)
    assert _pop_order(resumed) == oracle.order()


def test_raising_crawl_surfaces_the_io_threads_error(monkeypatch, tmp_path):
    """Wave 0's IO thread fails, and the loop raises in wave 1 before it
    joins that thread: ``crawl()`` raises the IO thread's error."""
    from raycrawl import pipeline

    write_seen, wave_table = pipeline._write_seen_wave, pipeline.wave_table
    seen_calls, table_calls = [], []

    def failing_seen(*args):  # the seeds' write, then wave 0's
        seen_calls.append(args)
        if len(seen_calls) == 2:
            raise OSError("disk full")
        write_seen(*args)

    def failing_table(buf):  # wave 0's one task, then wave 1's
        table_calls.append(buf)
        if len(table_calls) == 2:
            raise _Killed("wave_table")
        return wave_table(buf)

    monkeypatch.setattr(pipeline, "_write_seen_wave", failing_seen)
    monkeypatch.setattr(pipeline, "wave_table", failing_table)
    with pytest.raises(OSError, match="disk full") as err:
        crawl(cached_corpus("feature", **T2),
              CrawlConfig(out_dir=str(tmp_path / "out"), **_kill_config("bfs")))
    assert isinstance(err.value.__context__, _Killed)


def test_default_out_dir_separates_priority_modes():
    """ADVICE r3: the default out_dir (cfg_key) must differ between a BFS
    and a priority config on the same corpus/seed/caps — otherwise
    resume=True could resume a BFS checkpoint into a priority crawl and
    produce a hybrid pop order (heap entries keep the old fn's
    priorities). The same holds for the shard count, whose checkpoint
    holds one snapshot per shard."""
    from raycrawl.gen_golden import url_priority

    corpus_dir = cached_corpus("feature", **T2)
    kw = dict(seed_url="https://h0.example/d0/p0.html", max_depth=1,
              max_pages=4, wave_budget=4, respect_robots=False)
    bfs = crawl(corpus_dir, CrawlConfig(num_shards=2, **kw))
    prio = crawl(corpus_dir, CrawlConfig(num_shards=2,
                                         priority_fn=url_priority, **kw))
    three = crawl(corpus_dir, CrawlConfig(num_shards=3, **kw))
    dirs = {os.path.dirname(o.results_dir) for o in (bfs, prio, three)}
    assert len(dirs) == 3


def test_crawl_warc_sink_digest_verified_roundtrip(tmp_path):
    """sink='warc' (VERDICT r4 item 7): every successfully fetched page of
    the crawl lands in a Common-Crawl-layout wave archive; reading the
    archives back with digest verification ON yields byte-identical html
    for exactly the crawled url set."""
    _check_warc_roundtrip(tmp_path)


def test_crawl_warc_sink_with_wrong_peeks(monkeypatch, tmp_path):
    """A fetch task archives every page it reads, so the warc sink must
    not extract pages ahead: with wrong peeks planted, the archives still
    hold exactly the crawled url set."""
    from tests.test_frontier import plant_wrong_peeks

    plant_wrong_peeks(monkeypatch)
    outcome = _check_warc_roundtrip(tmp_path)
    assert outcome.stats["speculation"] == {
        "hit_pages": 0, "wasted_pages": 0,
        "extra_pages": outcome.stats["pages_success"]
        + outcome.stats["pages_failed"]}


def _check_warc_roundtrip(tmp_path):
    import glob

    from raycrawl.warc import read_warc

    corpus_dir = cached_corpus("feature", **T2)
    out_dir = str(tmp_path / "warc_crawl")
    cfg = CrawlConfig(seed_url=SEED, num_shards=4, wave_budget=16,
                      extract_concurrency=2, out_dir=out_dir, sink="warc",
                      **CRAWL_KW)
    outcome = crawl(corpus_dir, cfg)
    warc_dir = outcome.stats["warc_dir"]
    files = sorted(glob.glob(os.path.join(warc_dir, "wave=*", "*.warc.gz")))
    assert files, "sink produced no archives"

    # read back with digest verification (parse raises on sha1 mismatch)
    got = read_warc(warc_dir, verify_digest=True).to_pandas()
    crawled = outcome.results()
    assert sorted(got["url"]) == sorted(crawled.column("url").to_pylist())

    # payload bytes must equal the corpus html for every archived url
    corpus_files = glob.glob(os.path.join(corpus_dir, "**", "*.parquet"),
                             recursive=True)
    corpus_html = {}
    for f in corpus_files:
        t = pq.read_table(f, columns=["url", "html"])
        corpus_html.update(zip(t.column("url").to_pylist(),
                               t.column("html").to_pylist()))
    for url, html in zip(got["url"], got["html"]):
        exp = corpus_html[url]
        exp = exp.encode() if isinstance(exp, str) else exp
        assert html == exp, url

    # byte-determinism: a re-run writes identical archives
    bytes_a = {f: open(f, "rb").read() for f in files}
    crawl(corpus_dir, cfg)
    for f, blob in bytes_a.items():
        assert open(f, "rb").read() == blob, f
    return outcome


def test_crawl_survives_ray_restart_in_one_process(tmp_path):
    """crawl() keeps its worker and shard actors in process-global pools.
    After ``ray.shutdown()`` + ``ray.init()`` in the same process those
    handles are stale; the next crawl() must drop them on its own and still
    match the oracle. Runs in a child process that owns its Ray sessions."""
    script = textwrap.dedent("""
        import json, sys
        import ray
        from raycrawl.fixtures import cached_corpus
        from raycrawl.gen_golden import CRAWL_KW, SEED, T2
        from raycrawl.pipeline import CrawlConfig, CrawlOutcome, crawl

        corpus_dir = cached_corpus("feature", **T2)
        cfg = CrawlConfig(seed_url=SEED, num_shards=2, wave_budget=16,
                          extract_concurrency=1, out_dir=sys.argv[1],
                          **CRAWL_KW)
        runs = []
        for _ in range(2):
            ray.init(address="local", num_cpus=2, include_dashboard=False,
                     logging_level="ERROR", object_store_memory=128 << 20)
            res = crawl(corpus_dir, cfg).results()
            ray.shutdown()
            runs.append(res.select(["seq", "depth", "url"]).to_pylist())
        print(json.dumps(runs))
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")], cwd=root,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    first, second = json.loads(proc.stdout.strip().splitlines()[-1])
    oracle = crawl_oracle(feature_corpus(**T2), SEED, wave_budget=16,
                          **CRAWL_KW)
    exp = [{"seq": p.seq, "depth": p.depth, "url": p.url} for p in oracle.pages]
    assert first == exp
    assert second == exp


# three configs that differ in every WaveExtractor setting: another seed
# host, extra exclude patterns, full-page extraction
_POOL_CONFIGS = (
    dict(seed_url="https://h2.example/d0/p0.html"),
    dict(seed_url=SEED,
         exclude_patterns=[r"/skip/", r"\.(jpg|png)$", r"/d1/"]),
    dict(seed_url=SEED, only_main=False),
)


def _check_against_oracle(out, cfg):
    """``out``'s pages (seq, depth, url, markdown) and seen set equal the
    serial oracle's under ``cfg``'s crawl settings."""
    kw = {k: v for k, v in cfg.items()
          if k not in ("seed_url", "num_shards", "extract_concurrency")}
    oracle = crawl_oracle(feature_corpus(**T2), cfg["seed_url"], **kw)
    got = out.results().select(["seq", "depth", "url", "markdown"])
    assert got.to_pylist() == [
        {"seq": p.seq, "depth": p.depth, "url": p.url, "markdown": p.markdown}
        for p in oracle.pages]
    seen = out.seen()
    assert ({(canonicalize(u), d, s) for u, d, s in zip(
        seen.column("url").to_pylist(), seen.column("depth").to_pylist(),
        seen.column("seq").to_pylist())}
        == {(canonicalize(u), d, s) for u, d, s, _ in oracle.seen})


def _pool_config(i):
    return {"max_depth": 2, "max_pages": 40, "wave_budget": 16,
            "num_shards": 2, "extract_concurrency": 2,
            "exclude_patterns": [r"/skip/", r"\.(jpg|png)$"],
            **_POOL_CONFIGS[i]}


def test_one_worker_pool_serves_every_config(tmp_path):
    """Crawls that differ in seed host, exclude patterns and only_main
    all run on one pool of ``extract_concurrency`` workers, and each
    matches the oracle: a worker builds each crawl's extractor from the
    settings its calls carry."""
    from raycrawl import pipeline

    pipeline._WORKER_POOLS.clear()  # the dropped handles end their actors
    for i in range(len(_POOL_CONFIGS)):
        cfg = _pool_config(i)
        out = crawl(cached_corpus("feature", **T2),
                    CrawlConfig(out_dir=str(tmp_path / str(i)), **cfg))
        _check_against_oracle(out, cfg)
        if i == 0:
            workers = list(pipeline._WORKER_POOLS)
    assert len(pipeline._WORKER_POOLS) == 2
    assert list(pipeline._WORKER_POOLS) == workers


@pytest.mark.parametrize("when", ["between_crawls", "mid_wave"])
def test_restarted_worker_rebuilds_its_extractor(monkeypatch, tmp_path, when):
    """Ray restarts a killed pooled worker with no state. Killed before a
    crawl of settings the pool has not served, or while wave 2's tasks
    (its predicted pages among them) are in flight, the restarted worker
    rebuilds its reader and extractor from the calls it gets, stays in
    the pool, and the crawl matches the oracle."""
    import ray

    from raycrawl import pipeline

    corpus_dir = cached_corpus("feature", **T2)
    crawl(corpus_dir, CrawlConfig(out_dir=str(tmp_path / "first"),
                                  **_pool_config(0)))
    victim = pipeline._WORKER_POOLS[0]  # the one every wave's first task uses

    def pid():
        return ray.get(victim.__ray_call__.remote(lambda _: os.getpid()))

    first_pid, killed = pid(), []

    def kill():
        ray.kill(victim, no_restart=False)
        killed.append(True)

    if when == "between_crawls":
        kill()
    else:
        collect = pipeline._WaveLoop.collect

        def kill_then_collect(self, w):
            if w.num == 2:
                kill()
            return collect(self, w)

        monkeypatch.setattr(pipeline._WaveLoop, "collect", kill_then_collect)
    cfg = _pool_config(2)
    out = crawl(corpus_dir, CrawlConfig(out_dir=str(tmp_path / "second"),
                                        **cfg))
    _check_against_oracle(out, cfg)
    assert killed and victim in pipeline._WORKER_POOLS[:2]
    assert pid() != first_pid  # the same actor, in a new process
