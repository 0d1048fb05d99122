"""Unit tests for the frontier shard logic (actor-free FrontierShardLocal),
plus crawl()-level checks that the insert contract still surfaces."""

import copy
import pickle

import pytest
import ray

from raycrawl import pipeline
from raycrawl.fixtures import cached_corpus, feature_corpus
from raycrawl.frontier import FrontierShardLocal
from raycrawl.oracle import crawl_oracle
from raycrawl.urlnorm import url_key


def _k(u):
    return url_key(u)


def test_check_batch_first_rank_wins_and_seen():
    s = FrontierShardLocal(0, respect_robots=False)
    u1, u2 = "https://h.example/a", "https://h.example/b"
    out = s.check_batch([(0, _k(u1), u1, "h.example"),
                         (1, _k(u2), u2, "h.example"),
                         (2, _k(u1), u1, "h.example")])  # batch dup of rank 0
    assert out == [(0, True), (1, True), (2, False)]
    s.insert_batch([(0, 0, u1, "h.example", None, _k(u1))])
    out2 = s.check_batch([(0, _k(u1), u1, "h.example")])
    assert out2 == [(0, False)]
    assert s.stats()["dup_hits"] == 2


def test_pop_order_depth_then_seq():
    s = FrontierShardLocal(0, respect_robots=False)
    items = [(5, 1, "https://h/x1", "h", None, _k("https://h/x1")),
             (2, 0, "https://h/x2", "h", None, _k("https://h/x2")),
             (3, 1, "https://h/x3", "h", None, _k("https://h/x3"))]
    s.insert_batch(items)
    popped = s.pop_batch(wave=0, budget=10)
    # (priority, seq, depth, url, parent); default priority == depth
    assert [(p, q) for p, q, _, _, _ in popped] == [(0, 2), (1, 3), (1, 5)]
    assert all(p == d for p, _, d, _, _ in popped)


def test_politeness_token_bucket_and_refill():
    s = FrontierShardLocal(0, respect_robots=False,
                           politeness_rate=2.0, politeness_burst=2.0)
    items = [(i, 0, f"https://h.example/p{i}", "h.example", None,
              _k(f"https://h.example/p{i}")) for i in range(6)]
    s.insert_batch(items)
    assert len(s.pop_batch(wave=0, budget=10)) == 2  # burst
    assert len(s.pop_batch(wave=0, budget=10)) == 0  # exhausted this wave
    assert len(s.pop_batch(wave=1, budget=10)) == 2  # refilled
    assert len(s.pop_batch(wave=2, budget=10)) == 2
    assert s.queue_size() == 0


def test_push_back_refunds_tokens():
    s = FrontierShardLocal(0, respect_robots=False,
                           politeness_rate=1.0, politeness_burst=1.0)
    u = "https://h.example/p0"
    s.insert_batch([(0, 0, u, "h.example", None, _k(u))])
    popped = s.pop_batch(wave=0, budget=10)
    assert len(popped) == 1
    s.push_back(popped)
    assert s.queue_size() == 1
    assert len(s.pop_batch(wave=0, budget=10)) == 1  # token refunded


def test_snapshot_restore_roundtrip():
    s = FrontierShardLocal(0, respect_robots=True, politeness_rate=3.0,
                           politeness_burst=3.0)
    s.load_robots({"h.example": "User-agent: *\nDisallow: /private/\n"})
    items = [(i, i % 3, f"https://h.example/p{i}", "h.example", None,
              _k(f"https://h.example/p{i}")) for i in range(10)]
    s.insert_batch(items)
    s.pop_batch(wave=0, budget=3)
    blob = s.snapshot()

    t = FrontierShardLocal(0)
    t.restore(blob)
    assert t.queue_size() == s.queue_size()
    assert t.stats()["popped"] == s.stats()["popped"]
    # identical pop behavior post-restore
    assert t.pop_batch(wave=1, budget=4) == s.pop_batch(wave=1, budget=4)


def test_robots_gate_in_check_batch():
    s = FrontierShardLocal(0, respect_robots=True)
    s.load_robots({"h.example": "User-agent: *\nDisallow: /private/\n"})
    cands = [(0, _k("https://h.example/ok"), "https://h.example/ok", "h.example"),
             (1, _k("https://h.example/private/x"),
              "https://h.example/private/x", "h.example")]
    out = s.check_batch(cands)
    assert out == [(0, True), (1, False)]
    assert s.stats()["robots_blocked"] == 1


def test_cuckoo_scale_mode_no_exact_shadow():
    s = FrontierShardLocal(0, exact_shadow=False, respect_robots=False,
                           capacity=1 << 12)
    urls = [f"https://h.example/p{i}" for i in range(500)]
    s.insert_batch([(i, 0, u, "h.example", None, _k(u))
                    for i, u in enumerate(urls)])
    out = s.check_batch([(i, _k(u), u, "h.example")
                         for i, u in enumerate(urls)])
    assert all(not ok for _, ok in out)  # all already seen


def test_robots_crawl_delay_overrides_politeness():
    s = FrontierShardLocal(0, respect_robots=True, wave_seconds=1.0)
    # Crawl-delay: 2 seconds → 0.5 pops/wave for this host
    s.load_robots({"slow.example": "User-agent: *\nCrawl-delay: 2\n",
                   "fast.example": "User-agent: *\nAllow: /\n"})
    items = []
    for i in range(4):
        for host in ("slow.example", "fast.example"):
            u = f"https://{host}/p{i}"
            items.append((len(items), 0, u, host, None, url_key(u)))
    s.insert_batch(items)
    pops_by_wave = []
    for w in range(8):
        popped = s.pop_batch(wave=w, budget=100)
        pops_by_wave.append([u.split("/")[2] for (_, _, _, u, _) in popped])
        if s.queue_size() == 0:
            break
    # fast host unthrottled (all 4 in wave 0); slow host ≤1 per wave and
    # only every other wave (rate 0.5)
    assert pops_by_wave[0].count("fast.example") == 4
    slow_counts = [w.count("slow.example") for w in pops_by_wave]
    assert max(slow_counts) == 1
    assert sum(slow_counts) == 4


def test_insert_batch_rejects_double_admission():
    """ADVICE r2: inserting a key already confirmed in the seen set is a
    violated admission contract (two seqs for one URL → double crawl) and
    must raise loudly, not silently double-queue."""
    import pytest

    s = FrontierShardLocal(0, respect_robots=False)
    u = "https://h.example/dup"
    s.insert_batch([(0, 0, u, "h.example", None, _k(u))])
    with pytest.raises(RuntimeError, match="admission contract"):
        s.insert_batch([(1, 0, u, "h.example", None, _k(u))])
    assert s.stats()["insert_dups"] == 1


def _shard_with_queue(**kw):
    s = FrontierShardLocal(0, respect_robots=False, **kw)
    s.insert_batch([(i, i % 2, f"https://h{i % 3}.example/p{i}",
                     f"h{i % 3}.example", None,
                     _k(f"https://h{i % 3}.example/p{i}")) for i in range(12)])
    return s


def _shard_for_peeks():
    """Three hosts at 2 pops per wave and a Crawl-delay host (one pop
    every other wave), queued at two depths, after one partial pop."""
    s = FrontierShardLocal(0, respect_robots=True, politeness_rate=2.0,
                           politeness_burst=2.0)
    s.load_robots({"slow.example": "User-agent: *\nCrawl-delay: 2\n"})
    hosts = ["h0.example", "h1.example", "h2.example", "slow.example"]
    s.insert_batch([(i, i % 2, f"https://{hosts[i % 4]}/p{i}", hosts[i % 4],
                     None, _k(f"https://{hosts[i % 4]}/p{i}"))
                    for i in range(20)])
    s.pop_batch(wave=0, budget=3)
    return s


@pytest.mark.parametrize("peeks", [
    [(0, 5)], [(1, 3)], [(1, 100)], [(2, 0)],
    [(1, 100), (3, 4), (2, 2), (6, 100)]])
def test_peek_batch_is_pop_batch_without_state_change(peeks):
    """``peek_batch(w, b)`` returns what ``pop_batch(w, b)`` on a deep
    copy returns, and leaves the queue order, the politeness buckets, the
    counters, ``stats()`` and the next snapshot's bytes as they were, so
    a later pop is unchanged too."""
    s = _shard_for_peeks()
    heap, tokens, last_wave = list(s.heap), dict(s.tokens), dict(s.last_wave)
    before = copy.deepcopy(s)
    for wave, budget in peeks:
        assert s.peek_batch(wave, budget) == \
            copy.deepcopy(s).pop_batch(wave, budget)
    assert (s.heap, s.tokens, s.last_wave) == (heap, tokens, last_wave)
    assert s.stats() == before.stats()
    assert s.snapshot() == before.snapshot()
    assert s.pop_batch(4, 100) == before.pop_batch(4, 100)


def test_advance_equals_insert_snapshot_stats_pop():
    """``advance`` = insert_batch, then snapshot (full) or snapshot_delta,
    then stats, then pop_batch, then peek_batch of the wave after: same
    pops, blobs, stats and peeks, wave after wave, budget 0, ahead 0 and
    throttled hosts included."""
    kw = dict(politeness_rate=2.0, politeness_burst=2.0)
    calls, one = _shard_with_queue(**kw), _shard_with_queue(**kw)
    seq = 100
    for wave, (full, budget, ahead, n_new) in enumerate(
            [(True, 5, 4, 3), (False, 0, 0, 2), (False, 4, 100, 0),
             (True, 0, 3, 0), (False, 3, 0, 4), (False, 100, 100, 1)]):
        items = []
        for _ in range(n_new):
            u = f"https://h{seq % 3}.example/n{seq}"
            items.append((seq, 1, u, f"h{seq % 3}.example", None, _k(u)))
            seq += 1
        calls.insert_batch(items)
        blob = calls.snapshot() if full else calls.snapshot_delta()
        stats = calls.stats()
        pops = calls.pop_batch(wave, budget)
        peek = calls.peek_batch(wave + 1, ahead)
        assert one.advance(items, full, wave, budget, ahead) == \
            (pops, blob, stats, peek)
        assert len(pickle.loads(blob)["heap"]) == len(pops) + calls.queue_size()
    assert one.stats() == calls.stats()
    assert one.snapshot() == calls.snapshot()


def test_advance_raises_on_double_admission():
    s = FrontierShardLocal(0, respect_robots=False)
    u = "https://h.example/dup"
    item = (0, 0, u, "h.example", None, _k(u))
    pops, *_ = s.advance([item], True, 0, 5)
    assert [p[3] for p in pops] == [u]
    with pytest.raises(RuntimeError, match="admission contract"):
        s.advance([item], False, 1, 5)


def _crawl_with_admit_all_shards(monkeypatch, tmp_path, **cfg_kw):
    """A crawl whose shards admit every candidate, so a page linking to an
    already seen url is inserted twice: a planted driver-side double
    admission."""
    class AdmitAll(FrontierShardLocal):
        def check_batch(self, cands):
            return [(rank, True) for rank, *_ in cands]

    monkeypatch.setattr(pipeline, "FrontierShard", ray.remote(AdmitAll))
    monkeypatch.setattr(pipeline, "_SHARD_POOL", [])
    corpus = cached_corpus("feature", n_hosts=2, pages_per_host=24)
    cfg = pipeline.CrawlConfig(
        seed_url="https://h0.example/d0/p0.html", max_depth=3, max_pages=50,
        exclude_patterns=[r"/skip/", r"\.(jpg|png)$"], num_shards=2,
        out_dir=str(tmp_path / "out"), **cfg_kw)
    return pipeline.crawl(corpus, cfg)


def test_crawl_surfaces_double_admission(monkeypatch, tmp_path):
    """Wave 1's pages link back to the seed; the next wave's pops carry
    the insert error to the driver."""
    with pytest.raises(RuntimeError, match="admission contract"):
        _crawl_with_admit_all_shards(monkeypatch, tmp_path)


def test_crawl_surfaces_double_admission_on_last_wave(monkeypatch, tmp_path):
    """With two waves allowed, no pops follow wave 1: only the IO thread
    reads that wave's refs, and the error still leaves crawl()."""
    with pytest.raises(RuntimeError, match="admission contract"):
        _crawl_with_admit_all_shards(monkeypatch, tmp_path, max_waves=2)


def plant_wrong_peeks(monkeypatch):
    """Make crawl() use shards whose peek is wrong on purpose: it drops
    every other url of the true peek and adds the latest-queued urls,
    which only later waves pop."""
    class WrongPeeks(FrontierShardLocal):
        def peek_batch(self, wave, budget):
            true = super().peek_batch(wave, budget)
            later = [(prio, seq, depth, url, parent) for
                     prio, seq, depth, url, _host, parent in
                     sorted(self.heap)[-(budget // 2 + 1):]]
            return true[::2] + [it for it in later if it not in true]

    monkeypatch.setattr(pipeline, "FrontierShard", ray.remote(WrongPeeks))
    monkeypatch.setattr(pipeline, "_SHARD_POOL", [])


def test_crawl_with_wrong_peeks_is_exact(monkeypatch, tmp_path):
    """A peek only picks the pages the pool extracts early. With wrong
    peeks the results, seen set and wave log equal those of a crawl
    with true peeks and the serial oracle's order; the mispredicted pages
    are extracted, counted as wasted and never written."""
    sizes = dict(n_hosts=4, host_sizes=[60, 10, 10, 10], with_private=False)
    corpus = cached_corpus("feature", **sizes)
    seeds = [f"https://h{i}.example/d0/p0.html" for i in range(4)]
    kw = dict(max_depth=10, max_pages=500, wave_budget=16,
              exclude_patterns=[r"/skip/", r"\.(jpg|png)$"],
              politeness_rate=4.0, politeness_burst=4.0)

    from tests.test_crawl import wave_log

    def run(name):
        out_dir = str(tmp_path / name)
        out = pipeline.crawl(corpus, pipeline.CrawlConfig(
            seed_url=seeds, num_shards=2, extract_concurrency=2,
            batch_size=4, out_dir=out_dir, **kw))
        return out, wave_log(out_dir)

    true, true_waves = run("true")
    plant_wrong_peeks(monkeypatch)
    wrong, wrong_waves = run("wrong")
    assert wrong.results().equals(true.results())
    assert wrong.seen().equals(true.seen())
    assert wrong_waves == true_waves
    res = sorted(wrong.results().select(["wave", "seq", "depth", "url"])
                 .to_pylist(), key=lambda r: (r["wave"], r["seq"]))
    oracle = crawl_oracle(feature_corpus(**sizes), seeds, **kw)
    assert [(r["seq"], r["depth"], r["url"]) for r in res] == oracle.order()
    for out in (true, wrong):
        spec = out.stats["speculation"]
        assert spec["hit_pages"] + spec["extra_pages"] == \
            out.stats["pages_success"] + out.stats["pages_failed"]
    assert true.stats["speculation"]["hit_pages"] > 0
    assert true.stats["speculation"]["wasted_pages"] == 0
    assert wrong.stats["speculation"]["wasted_pages"] > 0
