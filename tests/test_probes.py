"""The scale probes (tools/probes.py) at toy sizes: every probe's checks
pass on a small input, the runner records a probe run from a spawned
process, and a planted bug fails both the probe and the runner."""

import json

import pytest
import ray
from ray.data import DataContext

from tools import probes

# Small inputs for every probe; the sizes keep each probe's checks
# meaningful (planted pairs, spill under the minimum 75 MB store).
TOY = {
    "bfs": dict(nodes=20_000, edges=100_000),
    "bpe": dict(types=2_000, merges=200),
    "commonness": dict(docs=5_000, top_k=1_000),
    "containment": dict(docs=2_000),
    "cuckoo": dict(hosts=8, per_host=64, max_pages=400, capacity=1_020),
    "cuckoo_sizing": dict(keys=20_000, fp_probes=20_000,
                          member_sample=1_000),
    "dedup": dict(docs=3_000),
    "delta": dict(urls=20_000),
    "dup_ngram": dict(docs=2_000),
    "edit_pairs": dict(docs=2_000),
    "embedding_lsh": dict(vecs=3_000, planted=30),
    "graph": dict(nodes=5_000, edges=20_000, stars=500),
    "hits": dict(nodes=5_000, edges=20_000, shuffle_nodes=2_000,
                 shuffle_edges=8_000),
    "jsonl": dict(docs=2_000),
    "minhash_index": dict(docs=4_000, shard=200, planted=40),
    "spill": dict(hosts=8, pages_per_host=640, store_mb=75, num_cpus=4),
    "tfidf": dict(docs=2_000),
    "warc": dict(hosts=4, pages_per_host=32),
}


def test_toy_table_covers_every_probe():
    assert set(TOY) == set(probes.PROBES)


@pytest.mark.parametrize("name", list(TOY))
def test_probe_checks_pass_at_toy_size(name):
    if name == "spill":  # opens its own sessions: step out of conftest's
        ray.shutdown()
        try:
            metrics = probes.spill(**TOY[name])
        finally:
            ray.init(address="local", num_cpus=4, include_dashboard=False,
                     logging_level="ERROR")
            DataContext.get_current().enable_progress_bars = False
    else:
        metrics = probes.PROBES[name](**TOY[name])
    assert metrics
    json.dumps(metrics)  # the runner prints it as JSON


def test_runner_records_probe_from_spawned_process():
    rec = probes.run_probe("delta", **TOY["delta"])
    assert list(rec) == ["probe", "params", "git_sha", "wall_s",
                         "peak_rss_mb", "passed", "error", "metrics"]
    assert rec["probe"] == "delta" and rec["params"] == TOY["delta"]
    assert rec["passed"] is True and rec["error"] is None
    assert rec["wall_s"] > 0 and rec["peak_rss_mb"] > 0 and rec["git_sha"]
    assert rec["metrics"]["urls"] == TOY["delta"]["urls"]


def planted_delta(urls=TOY["delta"]["urls"]):
    """The delta probe over a `snapshot_delta` that drops one output row."""
    import raycrawl.ops.delta as delta_op

    real = delta_op.snapshot_delta

    def drop_one(*args, **kwargs):
        out = real(*args, **kwargs)
        return out.limit(out.count() - 1)

    delta_op.snapshot_delta = drop_one
    try:
        return probes.delta(urls=urls)
    finally:
        delta_op.snapshot_delta = real


def test_planted_bug_fails_probe_and_runner(monkeypatch, capsys):
    with pytest.raises(probes.ProbeFailed, match="delta counts"):
        planted_delta()
    monkeypatch.setitem(probes.PROBES, "delta", planted_delta)
    assert probes.main(["delta"]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["passed"] is False and "delta counts" in rec["error"]


def test_unknown_probe_name_exits_2(capsys):
    assert probes.main(["bfs", "no_such_probe"]) == 2
    err = capsys.readouterr().err
    assert "no_such_probe" in err and " ".join(probes.PROBES) in err
