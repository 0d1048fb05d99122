"""Tests for the training-data operators (dedup / cluster / textstats / joins
/ multimodal) over small Ray datasets."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from raycrawl.ops.dedup import (
    embedding_dup_pairs,
    exact_dedup,
    jaccard,
    minhash_dedup_pairs,
    minhash_signature,
    _minhash_params,
    simhash64,
    simhash_near_pairs,
)
from raycrawl.ops.textstats import rolling_fingerprint


def _docs(texts):
    return rd.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype="int64"), "text": texts}))


def _levenshtein(a, b):
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[len(b)]


def _serial_segment_dedup(texts, W):
    """segment_dedup's contract, serially: a W-word segment survives only
    at its first (doc_id, seg_idx)."""
    import re

    word = re.compile(r"\S+")
    win = {}
    for did, t in enumerate(texts):
        toks = word.findall(t)
        for idx, s in enumerate(range(0, len(toks), W)):
            win.setdefault(" ".join(toks[s : s + W]), (did, idx))
    rows = []
    for did, t in enumerate(texts):
        toks = word.findall(t)
        keeps = [" ".join(toks[s : s + W])
                 for idx, s in enumerate(range(0, len(toks), W))
                 if win[" ".join(toks[s : s + W])] == (did, idx)]
        rows.append((did, " ".join(keeps), (len(toks) + W - 1) // W,
                     len(keeps)))
    return pd.DataFrame(rows, columns=["doc_id", "text", "n_segments",
                                       "n_kept"]).astype(
        {"doc_id": "int64", "n_segments": "int64", "n_kept": "int64"})


def test_exact_dedup_keeps_min_id():
    ds = _docs(["aaa", "bbb", "aaa", "ccc", "bbb", "aaa"])
    out = exact_dedup(ds).to_pandas()
    assert sorted(out["doc_id"]) == [0, 1, 3]


def test_minhash_similarity_tracks_jaccard():
    a, b = _minhash_params(256)
    base = "the quick brown fox jumps over the lazy dog " * 10
    near = base.replace("lazy", "sleepy")
    far = "completely different words here entirely unrelated content " * 10
    sig_base = minhash_signature(base, a, b)
    sig_near = minhash_signature(near, a, b)
    sig_far = minhash_signature(far, a, b)
    est_near = (sig_base == sig_near).mean()
    est_far = (sig_base == sig_far).mean()
    true_near = jaccard(base, near)
    assert abs(est_near - true_near) < 0.15
    assert est_far < 0.05 < est_near


def test_minhash_dedup_finds_near_duplicates():
    base = "alpha beta gamma delta epsilon zeta eta theta " * 8
    texts = [base, base.replace("eta theta", "eta thetaX"),
             "unrelated totally different content " * 8,
             base]  # exact dup of 0
    out = minhash_dedup_pairs(_docs(texts), threshold=0.4).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 3) in pairs
    assert (0, 1) in pairs
    assert not any(2 in p for p in pairs)


def test_simhash_hamming_near_pairs():
    base = "one two three four five six seven eight nine ten " * 5
    texts = [base, base + " eleven", "entirely different thing " * 10]
    fp0, fp1 = simhash64(texts[0]), simhash64(texts[1])
    ham = bin(fp0 ^ fp1).count("1")
    assert ham <= 8  # near-dup fingerprints close in hamming space
    out = simhash_near_pairs(_docs(texts), max_hamming=8).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 1) in pairs


def test_embedding_dup_pairs_threshold():
    vecs = [[1.0, 0.0, 0.0], [0.999, 0.01, 0.0], [0.0, 1.0, 0.0]]
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(3, dtype="int64"),
        "embedding": pd.Series(vecs)}))
    out = embedding_dup_pairs(ds, threshold=0.99).to_pandas()
    assert set(zip(out["id_a"], out["id_b"])) == {(0, 1)}


def test_rolling_fingerprint_properties():
    t1 = "the quick brown fox jumps over the lazy dog again and again"
    assert rolling_fingerprint(t1) == rolling_fingerprint(t1)
    assert rolling_fingerprint(t1) != rolling_fingerprint(t1 + " extra trailing words here")
    assert rolling_fingerprint("") == 0


def test_metrics_prometheus_render():
    from raycrawl.metrics import render_prometheus

    stats = {"pages_success": 10, "pages_failed": 1, "total_seen": 12,
             "waves": 3, "pages_per_sec": 5.5, "dedup_hit_rate": 0.25,
             "robots_blocked": 2, "filter_false_positives": 0,
             "shards": [{"shard": 0, "queued": 4, "offered": 30,
                         "admitted": 12, "dup_hits": 8}]}
    text = render_prometheus(stats)
    assert "raycrawl_pages_success_total 10" in text
    assert '# TYPE raycrawl_pages_per_second gauge' in text
    assert 'raycrawl_frontier_depth{shard="0"} 4' in text


def test_dedup_survivors_connected_components():
    from raycrawl.ops.dedup import dedup_survivors

    pairs = pd.DataFrame({"id_a": [1, 2, 7], "id_b": [2, 3, 9]})
    out = dedup_survivors([0, 1, 2, 3, 7, 9, 11], pairs)
    canon = dict(zip(out["doc_id"], out["canonical_id"]))
    assert canon == {0: 0, 1: 1, 2: 1, 3: 1, 7: 7, 9: 7, 11: 11}
    survivors = sorted(out[out["doc_id"] == out["canonical_id"]]["doc_id"])
    assert survivors == [0, 1, 7, 11]


def test_bpe_ish_tokens():
    from raycrawl.ops.textstats import bpe_ish_tokens

    toks = bpe_ish_tokens("I'll say: it's 42 items, okay?")
    assert "".join(toks) == "I'll say: it's 42 items, okay?"
    assert "'ll" in toks and " 42" in toks and "'s" in toks
    assert bpe_ish_tokens("") == []


def _dup_fixture():
    """40 docs with every kind of duplicate the placed ops look for:
    exact copies, one-token near-dups, an excerpt, a stitched doc,
    prefix typos, a shared boilerplate head (hot grams) and empty docs."""
    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(60)]
    boiler = "the quick brown fox jumps over the lazy dog once more "
    texts = [" ".join(rng.choice(vocab, rng.randint(15, 45)))
             for _ in range(36)]
    for i in range(20, 30):
        texts[i] = boiler + texts[i]
    texts[5] = texts[1]                                   # exact copy
    texts[9] = " ".join(texts[2].split()[:4] + ["zz"]
                        + texts[2].split()[5:])           # near-dup
    texts[12] = " ".join(texts[3].split()[:30])           # excerpt
    texts[14] = texts[4] + " " + texts[6]                 # stitched
    texts[17] = "q" + texts[7][1:]                        # prefix typo
    texts[33] = texts[21]                                 # boilerplate copy
    return texts + ["", "  ", "a b", "a b"]


def _pairs(df, *cols):
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    if len(df) == 0:
        return pd.DataFrame(columns=list(cols))
    return (df[list(cols)].sort_values(list(cols[:2]))
            .reset_index(drop=True))


def _serial_pairs(texts, value, keep, cols=("id_a", "id_b", "sim")):
    """Every (a < b) pair whose ``value`` passes ``keep``, brute force."""
    import itertools

    rows = [(a, b, value(texts[a], texts[b]))
            for a, b in itertools.combinations(range(len(texts)), 2)]
    return pd.DataFrame([r for r in rows if keep(r[2])], columns=list(cols))


def _serial_lsh_pairs(texts):
    """Every (a < b) pair sharing a MinHash (band, band_hash) bucket."""
    import itertools

    import pyarrow as pa

    from raycrawl.ops.dedup import MinHashStage

    rows = MinHashStage()(pa.table({
        "doc_id": np.arange(len(texts)), "text": texts})).to_pandas()
    return sorted({p for ids in rows.groupby(["band", "band_hash"])
                   ["doc_id"].agg(sorted)
                   for p in itertools.combinations(ids, 2)})


def _serial_dup_spans(texts, L):
    import collections

    toks = [t.split() for t in texts]
    grams = [[tuple(ts[s:s + L]) for s in range(len(ts) - L + 1)]
             for ts in toks]
    count = collections.Counter(g for gs in grams for g in gs)
    rows = []
    for did, (ts, gs) in enumerate(zip(toks, grams)):
        starts = [s for s, g in enumerate(gs) if count[g] >= 2]
        covered = {p for s in starts for p in range(s, s + L)}
        rows.append((did, len(ts), len(starts), len(covered)))
    return pd.DataFrame(rows, columns=["doc_id", "n_tokens", "n_dup_starts",
                                       "n_dup_tokens"])


def _embedding_fixture():
    rng = np.random.RandomState(5)
    base = rng.standard_normal((120, 16))
    dups = base[::6] + 0.02 * rng.standard_normal((20, 16))
    vecs = np.vstack([base, dups])
    ids = np.concatenate([np.arange(120), 1000 + np.arange(20)])
    return ids.astype("int64"), vecs


def _placed_case(op, tmp_path):
    """(got, want) for one placed dedup op on the duplicate fixture."""
    import itertools

    from raycrawl.ops import dedup as dd

    texts = _dup_fixture()
    docs = _docs(texts)
    if op == "exact":
        first = {}
        for i, t in enumerate(texts):
            first.setdefault(t, i)
        got = sorted(dd.exact_dedup(docs).to_pandas()["doc_id"])
        return got, sorted(first.values())
    if op == "minhash_candidates":
        got = _pairs(dd.minhash_candidates(docs), "id_a", "id_b")
        return sorted(map(tuple, got.to_numpy())), _serial_lsh_pairs(texts)
    if op == "minhash_pairs":
        got = _pairs(dd.minhash_dedup_pairs(docs, threshold=0.5),
                     "id_a", "id_b", "jaccard_sim")
        sims = [(a, b, dd.jaccard(texts[a], texts[b]))
                for a, b in _serial_lsh_pairs(texts)]
        return got, pd.DataFrame([r for r in sims if r[2] >= 0.5],
                                 columns=["id_a", "id_b", "jaccard_sim"])
    if op in ("allpairs", "allpairs_hash_order"):
        got = _pairs(dd.allpairs_jaccard_pairs(docs, threshold=0.5),
                     "id_a", "id_b", "jaccard_sim")
        return got, _serial_pairs(texts, dd.jaccard, lambda v: v >= 0.5,
                                  ("id_a", "id_b", "jaccard_sim"))
    if op == "containment":
        got = _pairs(dd.containment_pairs(docs, threshold=0.8),
                     "id_a", "id_b", "containment")
        return got, _serial_pairs(texts, dd.containment, lambda v: v >= 0.8,
                                  ("id_a", "id_b", "containment"))
    if op == "simhash":
        got = _pairs(dd.simhash_near_pairs(docs, max_hamming=6),
                     "id_a", "id_b", "hamming")
        return got, _serial_pairs(
            texts, lambda a, b: bin(dd.simhash64(a) ^ dd.simhash64(b))
            .count("1"), lambda v: v <= 6, ("id_a", "id_b", "hamming"))
    if op == "edit":
        got = _pairs(dd.edit_prefix_pairs(docs, k=1, key_len=24),
                     "doc_a", "doc_b", "dist")
        return got, _serial_pairs(
            texts, lambda a, b: _levenshtein(a[:24], b[:24]),
            lambda v: v <= 1, ("doc_a", "doc_b", "dist"))
    if op == "dup_spans":
        got = (dd.dup_spans(docs, gram_len=3).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        return got, _serial_dup_spans(texts, 3)
    if op == "segment":
        got = (dd.segment_dedup(docs, words_per_seg=10).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        return got[["doc_id", "text", "n_segments", "n_kept"]], \
            _serial_segment_dedup(texts, 10)
    if op == "embedding_lsh":
        ids, vecs = _embedding_fixture()
        emb = rd.from_pandas(pd.DataFrame({
            "vec_id": ids, "embedding": [list(v) for v in vecs]}))
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        sims = unit @ unit.T
        want = pd.DataFrame(
            [(ids[a], ids[b], sims[a, b])
             for a, b in itertools.combinations(range(len(ids)), 2)
             if sims[a, b] >= 0.95], columns=["id_a", "id_b", "cosine_sim"])
        got = _pairs(dd.embedding_dup_pairs(emb, threshold=0.95),
                     "id_a", "id_b", "cosine_sim")
        return got, want
    assert op == "minhash_index"
    corpus = docs
    new_texts = [t + " znew" for t in texts[:12]]
    new = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(100, 112, dtype="int64"), "text": new_texts}))
    idx = str(tmp_path / "mhidx")
    dd.build_minhash_index(corpus, idx)
    got = _pairs(dd.minhash_probe_index(new, idx, corpus, threshold=0.8),
                 "id_a", "id_b", "jaccard_sim")
    want = pd.DataFrame(
        [(100 + i, j, dd.jaccard(nt, t)) for i, nt in enumerate(new_texts)
         for j, t in enumerate(texts) if dd.jaccard(nt, t) >= 0.8],
        columns=["id_a", "id_b", "jaccard_sim"])
    return got, want


_PLACED_OPS = ["exact", "minhash_candidates", "minhash_pairs", "allpairs",
               "allpairs_hash_order", "containment", "simhash", "edit",
               "dup_spans", "segment", "embedding_lsh", "minhash_index"]


@pytest.mark.parametrize("placement", ["driver", "shuffle"])
@pytest.mark.parametrize("op", _PLACED_OPS)
def test_dedup_placement_matrix(op, placement, monkeypatch, tmp_path,
                                exchange_placement):
    """Every placed dedup op equals its serial reference under both
    exchange placements, forced through ``agg._DRIVER_BYTES`` (a 1 KB
    ``agg._PART_BYTES`` splits the shuffle into several partitions).
    The shuffle run also forces the verify join through
    ``_VERIFY_BROADCAST_LIMIT`` and the driver run the broadcast;
    ``allpairs_hash_order`` turns the hot-gram sample off, and
    ``embedding_lsh`` forces LSH through ``_EMBEDDING_EXACT_ROWS``."""
    from raycrawl.ops import dedup as dd
    from raycrawl.ops.agg import placement_log

    exchange_placement(placement)
    monkeypatch.setattr(dd, "_VERIFY_BROADCAST_LIMIT",
                        1 << 62 if placement == "driver" else 0)
    monkeypatch.setattr(dd, "_EMBEDDING_EXACT_ROWS", 0)
    if op == "allpairs_hash_order":
        monkeypatch.setattr(dd, "_HOT_SAMPLE_DOCS", 0)
    with placement_log() as log:
        got, want = _placed_case(op, tmp_path)
    assert len(want) > 0  # the fixture has duplicates for this op
    assert {r["placement"] for r in log} == {placement}
    if placement == "shuffle":
        assert max(r["parts"] for r in log) > 1
    if isinstance(want, list):
        assert got == want
    else:
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want,
                                      check_dtype=False)


def test_dedup_ops_without_duplicates():
    """A corpus with nothing to pair gives empty keyed and pair tables:
    every pair op returns zero rows instead of failing on a table that
    lost its columns."""
    from raycrawl.ops import dedup as dd

    docs = _docs(["alpha beta gamma delta", "one two three four five",
                  "red green blue"])
    for out in (dd.minhash_dedup_pairs(docs, threshold=0.5),
                dd.allpairs_jaccard_pairs(docs, threshold=0.5),
                dd.containment_pairs(docs, threshold=0.8),
                dd.simhash_near_pairs(docs, max_hamming=0),
                dd.edit_prefix_pairs(docs, k=1),
                dd.dup_spans(docs, gram_len=8)):
        df = out.to_pandas()
        assert len(df) == 0 or df.filter(like="dup").sum().sum() == 0


@pytest.mark.parametrize("placement", ["driver", "shuffle"])
@pytest.mark.parametrize("chunk", [1, 7, None])
def test_block_pairs_matches_bruteforce(chunk, placement, monkeypatch,
                                        exchange_placement):
    """``_block_pairs`` in self and cross mode equals the brute-force
    pairs of each block, with a ``keep`` that filters and adds a column,
    whether the blocks are paired in one step or a few pairs at a time
    (``_PAIR_CHUNK``), under both exchange placements."""
    import itertools

    from raycrawl.ops import dedup as dd

    exchange_placement(placement)
    if chunk is not None:
        monkeypatch.setattr(dd, "_PAIR_CHUNK", chunk)
    # every doc has a row in band 0 and in band 1, so a pair that
    # shares both blocks is emitted twice and must come out once
    rng = np.random.RandomState(4)
    n = 60
    ids = np.tile(rng.permutation(n), 2).astype("int64")
    left = pd.DataFrame({"b": np.repeat([0, 1], n).astype("int32"),
                         "k": [f"k{v}" for v in rng.randint(0, 3, 2 * n)],
                         "id": ids, "w": ids * 7 % 50})
    right = left.assign(id=ids + 1000, w=(ids + 1000) * 7 % 50)[::2]
    # a doc listed twice in one block never pairs with itself
    left = pd.concat([left, left[:1]], ignore_index=True)

    def heavy(a, b):
        s = a["w"] + b["w"]
        return s >= 40, {"s": s}

    def brute(rows_a, rows_b, pairs_of):
        out = set()
        for key, ga in rows_a.groupby(["b", "k"]):
            gb = rows_b[(rows_b["b"] == key[0]) & (rows_b["k"] == key[1])]
            for x, y in pairs_of(ga, gb):
                if x.w + y.w >= 40:
                    out.add((x.id, y.id, x.w + y.w))
        return out

    def self_pairs(ga, gb):
        rows = sorted(ga.itertuples(), key=lambda r: r.id)
        return [(x, y) for x, y in itertools.combinations(rows, 2)
                if x.id != y.id]

    def cross_pairs(ga, gb):
        return itertools.product(ga.itertuples(), gb.itertuples())

    for inputs, pairs_of in (([left], self_pairs),
                             ([left, right], cross_pairs)):
        got = dd._block_pairs([rd.from_pandas(f) for f in inputs],
                              ["b", "k"], "id", ["w"], heavy).to_pandas()
        want = brute(inputs[0], inputs[-1], pairs_of)
        assert list(got.columns) == ["id_a", "id_b", "s"]
        assert len(want) > 0
        rows = sorted(map(tuple, got.to_numpy()))
        # pairs are distinct within a kernel call: on the driver (one
        # call) that is every pair once, on partitions the blocks of a
        # pair may fall in several calls
        assert (rows if placement == "driver" else sorted(set(rows))) \
            == sorted(want)


_SKEW_CHILD = """
import resource, sys
import numpy as np, pandas as pd
import ray, ray.data as rd
from raycrawl.ops import agg
from raycrawl.ops.dedup import _block_pairs

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", object_store_memory=300 << 20)
rd.DataContext.get_current().enable_progress_bars = False
hot, singles = 2_000, 20_000
rows = pd.DataFrame({
    "band": np.zeros(hot + singles, np.int32),
    "band_hash": np.r_[np.zeros(hot, np.int64), 1 + np.arange(singles)],
    "doc_id": np.arange(hot + singles, dtype=np.int64)})
# the exchange_placement fixture's two settings, at most 8 partitions
agg._DRIVER_BYTES = 1 << 62 if sys.argv[1] == "driver" else -1
agg._PART_BYTES, agg._MAX_PARTS = 1024, 8
with agg.placement_log() as log:
    out = _block_pairs([rd.from_pandas(rows)], ["band", "band_hash"],
                       "doc_id").to_pandas()
assert [r["placement"] for r in log] == [sys.argv[1]], log
a, b = out["id_a"].to_numpy(), out["id_b"].to_numpy()
assert (a < b).all() and (b < hot).all()
print("pairs", len(out), len(np.unique(a * hot + b)))
print("maxrss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
ray.shutdown()
"""


@pytest.mark.parametrize("placement", ["driver", "shuffle"])
def test_block_pairs_hot_block_bounded(placement):
    """One block of 2,000 rows among 20,000 singleton blocks yields
    exactly its 1,999,000 distinct pairs under both placements, in a
    child process (own Ray session) that finishes within the timeout
    with a peak RSS of at most 1 GB."""
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SKEW_CHILD, placement], cwd=repo,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"_block_pairs on a hot block timed out ({placement})")
    assert proc.returncode == 0, err[-2000:]
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["pairs"] == "1999000 1999000"
    assert int(lines["maxrss_kb"]) <= 1 << 20


def test_simhash_near_pairs_budget_ends():
    """``max_hamming`` 0 and 15 (16 bands of 4 bits) are exact against
    brute force; -1 and 16 raise ``ValueError`` before any work. 16
    bands cannot block a budget of 16: fingerprints 0 and
    0x1111111111111111 are at distance 16 and differ in every band."""
    from raycrawl.ops import dedup as dd

    texts = _dup_fixture()
    docs = _docs(texts)
    for mh in (0, 15):
        got = _pairs(dd.simhash_near_pairs(docs, max_hamming=mh),
                     "id_a", "id_b", "hamming")
        want = _serial_pairs(
            texts, lambda a, b: bin(dd.simhash64(a) ^ dd.simhash64(b))
            .count("1"), lambda v: v <= mh, ("id_a", "id_b", "hamming"))
        assert len(want) > 0
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    for mh in (-1, 16):
        with pytest.raises(ValueError, match="max_hamming"):
            dd.simhash_near_pairs(None, max_hamming=mh)


def _join_sides():
    """Left (k, payload) over keys 0..19 and a right side with
    duplicate keys, keys outside the left range and a wide column."""
    left = pd.DataFrame({"k": np.arange(20, dtype=np.int64),
                         "payload": np.arange(20, dtype=np.int64) * 10})
    right = pd.DataFrame({
        "rk": np.array([0, 0, 3, 3, 3, 7, 11, 15, 99], dtype=np.int64),
        "wide": ["x" * 100] * 9})
    return left, right


def _exchange_case(case):
    """(inputs, keys, kernel, check(out DataFrame)) for one matrix case."""
    left, right = _join_sides()
    hits = [0, 3, 7, 11, 15]
    if case == "one_input":
        rng = np.random.RandomState(2)
        df = pd.DataFrame({"k1": rng.randint(0, 50, 500).astype("int64"),
                           "k2": rng.randint(0, 3, 500).astype("int64"),
                           "v": rng.randint(0, 1000, 500).astype("int64")})
        want = (df.groupby(["k1", "k2"], as_index=False)["v"].sum()
                .sort_values(["k1", "k2"]).reset_index(drop=True))

        def check(out):
            pd.testing.assert_frame_equal(
                out.sort_values(["k1", "k2"]).reset_index(drop=True), want)
        return ([df], [["k1", "k2"]],
                lambda g: g.groupby(["k1", "k2"], as_index=False)["v"].sum(),
                check)
    if case == "inner":
        def check(out):
            want = left.merge(right, left_on="k", right_on="rk")
            cols = ["k", "rk", "payload"]
            pd.testing.assert_frame_equal(
                out[list(want.columns)].sort_values(cols)
                .reset_index(drop=True),
                want.sort_values(cols).reset_index(drop=True))
        return ([left, right], ["k", "rk"],
                lambda a, b: a.merge(b, left_on="k", right_on="rk"), check)
    if case == "pushdown":
        # a key's rows all meet in one call, so a per-key aggregate in
        # the kernel is global (no second exchange after the join)
        lv = pd.DataFrame({"k": pd.Series([1, 1, 2, 2, 2, 3] * 20,
                                          dtype="int64"),
                           "v": pd.Series([10, 5, 1, 2, 3, 7] * 20,
                                          dtype="int64")})
        rv = pd.DataFrame({"rk": pd.Series([1, 2, 3], dtype="int64"),
                           "tag": ["a", "b", "c"]})

        def joined_sum(a, b):
            return (a.merge(b, left_on="k", right_on="rk")
                    .groupby(["k", "tag"], as_index=False)["v"].sum())

        def check(out):
            got = {(r.k, r.tag): r.v for r in out.itertuples()}
            assert got == {(1, "a"): 300, (2, "b"): 120, (3, "c"): 140}
        return [lv, rv], ["k", "rk"], joined_sum, check
    if case in ("semi", "anti"):
        keep = case == "semi"

        def check(out):
            out = out.sort_values("k").reset_index(drop=True)
            assert out["k"].tolist() == [
                k for k in range(20) if (k in hits) == keep]
            assert list(out.columns) == ["k", "payload"]
            assert (out["payload"] == out["k"] * 10).all()
        return ([left, right], ["k", "rk"],
                lambda a, b: a[a["k"].isin(b["rk"]) == keep], check)
    if case == "left_sparse_right":
        # one right row: most calls see an empty, still typed, right side
        lv = pd.DataFrame({"k": np.arange(256, dtype=np.int64)})
        rv = pd.DataFrame({"k": np.array([0], dtype=np.int64),
                           "v": np.array([7], dtype=np.int64)})

        def left_v(a, b):
            m = a.merge(b.astype({"v": "Int64"}), on="k", how="left")
            return m.assign(v=m["v"].fillna(-1).astype("int64"))

        def check(out):
            assert sorted(out["v"]) == [-1] * 255 + [7]
            assert out["v"].dtype == np.int64
        return [lv, rv], ["k", "k"], left_v, check
    if case == "empty_side":
        empty = right.iloc[0:0]
        left = pd.DataFrame({"k": np.arange(200, dtype=np.int64),
                             "payload": np.arange(200, dtype=np.int64)})

        def kernel(a, b):
            m = a.merge(b, left_on="k", right_on="rk", how="left")
            return m.assign(semi=a["k"].isin(b["rk"]).to_numpy())

        def check(out):
            assert len(out) == 200 and not out["semi"].any()
            assert list(out.columns) == ["k", "payload", "rk", "wide", "semi"]
        return [left, empty], ["k", "rk"], kernel, check
    if case == "left_above_2_53":
        big = 1 << 60
        lv = pd.DataFrame({"id": np.arange(big, big + 400, dtype=np.int64)})
        rv = pd.DataFrame({"id": np.arange(big, big + 400, 3, dtype=np.int64),
                           "val": np.arange(big + 1, big + 401, 3,
                                            dtype=np.int64)})

        def left_val(a, b):
            return a.merge(b.astype({"val": "Int64"}), on="id", how="left")

        def check(out):
            out = out.sort_values("id").reset_index(drop=True)
            want = dict(zip(rv["id"].tolist(), rv["val"].tolist()))
            got = out["val"].fillna(0).astype("int64").tolist()
            assert got == [want.get(i, 0) for i in out["id"].tolist()]
            assert out["id"].tolist() == lv["id"].tolist()
        return [lv, rv], ["id", "id"], left_val, check
    raise AssertionError(case)


@pytest.mark.parametrize("placement", ["driver", "shuffle"])
@pytest.mark.parametrize("case", [
    "one_input", "inner", "pushdown", "semi", "anti", "left_sparse_right",
    "empty_side", "left_above_2_53", "key_dtype_mismatch"])
def test_exchange_matrix(case, placement, exchange_placement):
    """``agg.exchange`` under both placements (the partition side cut
    into several 1 KB partitions): one and two inputs, inner / left /
    semi / anti kernels against their pandas results, an empty but typed
    side, int64 ids past 2^53 through a left merge, and key columns of
    different dtypes refused."""
    from raycrawl.ops.agg import exchange, placement_log

    exchange_placement(placement)
    if case == "key_dtype_mismatch":
        left, right = _join_sides()
        with pytest.raises(ValueError, match="key dtypes"):
            exchange([rd.from_pandas(left),
                      rd.from_pandas(right.astype({"rk": "int32"}))],
                     ["k", "rk"], lambda a, b: a)
        return
    frames, keys, kernel, check = _exchange_case(case)
    with placement_log() as log:
        out = exchange([rd.from_pandas(f) for f in frames], keys, kernel)
    check(out.to_pandas())
    assert [r["placement"] for r in log] == [placement]
    if placement == "shuffle":
        assert log[0]["parts"] >= 2


_POOL_CHILD = """
import os, tempfile
import numpy as np, pyarrow as pa, pyarrow.parquet as pq
import ray, ray.data as rd
from raycrawl.ops.dedup import (build_minhash_index, containment_pairs,
                                minhash_probe_index)

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
rng = np.random.RandomState(3)
texts = [" ".join(f"w{t}" for t in rng.randint(0, 2000, rng.randint(10, 100)))
         for _ in range(5000)]
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "documents.parquet")
    pq.write_table(pa.table({"doc_id": np.arange(5000, dtype=np.int64),
                             "text": texts}), path)
    docs = rd.read_parquet(path)
    print("pairs", containment_pairs(docs, threshold=0.8).count())
    new_path = os.path.join(d, "new.parquet")
    pq.write_table(pa.table({"doc_id": np.arange(10_000, 11_000,
                                                 dtype=np.int64),
                             "text": [t + " znew" for t in texts[:1000]]}),
                   new_path)
    idx = os.path.join(d, "index")
    build_minhash_index(rd.read_parquet(path), idx)
    print("probe", minhash_probe_index(rd.read_parquet(new_path), idx,
                                       rd.read_parquet(path)).count())
ray.shutdown()
"""


def test_containment_pairs_default_pool_finishes_on_4_cpus():
    """The prefix-gram actor pool, and the MinHash pools of the index
    build and probe, must not take every CPU of a 4-CPU session: over a
    ``read_parquet`` input a fixed pool of 4 left the read tasks no CPU
    and the op hung. Runs in its own process (own Ray session) under a
    timeout, so a hang fails here instead of stalling the suite."""
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen([sys.executable, "-c", _POOL_CHILD], cwd=repo,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("containment_pairs or the MinHash index hung on a "
                    "4-CPU session")
    assert proc.returncode == 0, err[-2000:]
    lines = out.strip().splitlines()
    assert lines[0].startswith("pairs ")
    # every new doc is its corpus twin plus one token
    assert lines[1].startswith("probe ") and int(lines[1].split()[1]) >= 1000


def _wide_op_runs(tmp_path):
    """Every op whose wide step is an ``agg.exchange``, run on an empty
    input: name → (call, expected DataFrame columns or None for a
    Dataset output)."""
    from raycrawl.ops import dedup as dd
    from raycrawl.ops import delta, graph, jsonl, textstats, training

    def docs():
        return rd.from_pandas(pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "text": pd.Series([], dtype=object),
            "lang": pd.Series([], dtype=object)}))

    def embeddings():
        return rd.from_pandas(pd.DataFrame({
            "vec_id": pd.Series([], dtype="int64"),
            "embedding": pd.Series([], dtype=object)}))

    idx = str(tmp_path / "mh_index")
    dd.build_minhash_index(_docs(["some corpus text here"]), idx)
    encoded = rd.from_pandas(pd.DataFrame({
        "doc_id": pd.Series([], dtype="int64"),
        "shard": pd.Series([], dtype="int64"),
        "n_tokens": pd.Series([], dtype="int64"),
        "token_ids": pd.Series([], dtype=object)}))
    pages = rd.from_pandas(pd.DataFrame({"url": pd.Series([], dtype=object),
                                         "html": pd.Series([], dtype=object)}))
    return {
        "snapshot_delta": (lambda: delta.snapshot_delta(
            docs(), docs(), key="doc_id", payload="text"), None),
        "vocab_stats": (lambda: textstats.vocab_stats(docs()),
                        ["n_tokens", "n_distinct_tokens"]),
        "collocations": (lambda: textstats.collocations(docs()),
                         ["w1", "w2", "cnt"]),
        "pack_sequences": (lambda: textstats.pack_sequences(docs()), None),
        "dup_ngram_stats": (lambda: textstats.dup_ngram_stats(docs()), None),
        "bigram_commonness": (lambda: textstats.bigram_commonness(docs()),
                              None),
        "top_tokens_per_lang": (
            lambda: textstats.top_tokens_per_lang(docs()),
            ["lang", "tok", "n", "rnk"]),
        "pack_id_sequences": (lambda: training.pack_id_sequences(encoded),
                              None),
        "deterministic_shuffle_rank": (
            lambda: training.deterministic_shuffle_rank(docs()), None),
        "stratified_split_assign": (
            lambda: training.stratified_split_assign(docs()),
            ["doc_id", "lang", "split"]),
        "write_jsonl_shards": (
            lambda: jsonl.write_jsonl_shards(docs(), str(tmp_path / "j")),
            ["shard", "n_rows", "n_bytes", "sum_id"]),
        "anchor_text_index": (lambda: graph.anchor_text_index(pages), None),
        "exact_dedup": (lambda: dd.exact_dedup(docs()), None),
        "exact_dedup_against_corpus": (
            lambda: dd.exact_dedup_against_corpus(docs(), docs()),
            ["doc_id"]),
        "minhash_dedup_pairs": (lambda: dd.minhash_dedup_pairs(docs()),
                                None),
        "allpairs_jaccard_pairs": (
            lambda: dd.allpairs_jaccard_pairs(docs()), None),
        "containment_pairs": (lambda: dd.containment_pairs(docs()), None),
        "simhash_near_pairs": (lambda: dd.simhash_near_pairs(docs()), None),
        "edit_prefix_pairs": (lambda: dd.edit_prefix_pairs(docs()), None),
        "dup_spans": (lambda: dd.dup_spans(docs()), None),
        "segment_dedup": (lambda: dd.segment_dedup(docs()), None),
        "embedding_dup_pairs_lsh": (
            lambda: dd.embedding_dup_pairs_lsh(embeddings()), None),
        "minhash_probe_index": (
            lambda: dd.minhash_probe_index(docs(), idx, docs()), None),
        "connected_components": (
            lambda: graph.connected_components(
                rd.from_pandas(pd.DataFrame({
                    "src": pd.Series([], dtype="int64"),
                    "dst": pd.Series([], dtype="int64")})), [3, 1, 2]),
            ["node", "component"]),
    }


_WIDE_OPS = [
    "snapshot_delta", "vocab_stats", "collocations", "pack_sequences",
    "dup_ngram_stats", "bigram_commonness", "top_tokens_per_lang",
    "pack_id_sequences", "deterministic_shuffle_rank",
    "stratified_split_assign", "write_jsonl_shards", "anchor_text_index",
    "exact_dedup", "exact_dedup_against_corpus", "minhash_dedup_pairs",
    "allpairs_jaccard_pairs", "containment_pairs", "simhash_near_pairs",
    "edit_prefix_pairs", "dup_spans", "segment_dedup",
    "embedding_dup_pairs_lsh", "minhash_probe_index",
    "connected_components"]


@pytest.mark.parametrize("placement", ["driver", "shuffle"])
@pytest.mark.parametrize("op", _WIDE_OPS)
def test_wide_ops_on_empty_input(op, placement, tmp_path, monkeypatch,
                                 exchange_placement):
    """Every op whose wide step runs through ``agg.exchange`` returns an
    empty result on an empty input under both placements: no rows (a
    zero count for ``vocab_stats``, every node its own component for
    the edgeless graph, forced onto the graph's shuffle placement) and,
    for a DataFrame result, its typed columns."""
    from raycrawl.ops import graph

    exchange_placement(placement)
    monkeypatch.setattr(graph, "_AUTO_BROADCAST_NODES", 0)
    call, columns = _wide_op_runs(tmp_path)[op]
    out = call()
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    if op == "vocab_stats":
        assert df.to_dict("records") == [{"n_tokens": 0,
                                          "n_distinct_tokens": 0}]
    elif op == "connected_components":
        assert df.to_dict("list") == {"node": [1, 2, 3],
                                      "component": [1, 2, 3]}
    else:
        assert len(df) == 0
    if columns is not None:
        assert list(df.columns) == columns


def test_encode_image_kb_budget_arithmetic():
    """M26: over-budget images are resized by (max_kb/current_kb)**0.5
    exactly once; under-budget images pass through unresized; output is a
    base64 data URI; codec failure returns None."""
    import base64

    from raycrawl.ops.multimodal import (
        FakeImageCodec,
        FakeImageDecoder,
        encode_image,
    )

    payload_small = b"x" * (10 * 1024)       # 10 KB < budget
    uri = encode_image(payload_small, 64, 64, max_size_kb=500)
    assert uri.startswith("data:image/png;base64,")
    # under budget: encoded size corresponds to the FULL 64x64 image
    raw = base64.b64decode(uri.split(",", 1)[1])
    assert len(raw) == len(FakeImageCodec().encode(
        FakeImageDecoder()(payload_small, 64, 64), "PNG"))

    payload_big = b"y" * (2000 * 1024)       # 2000 KB > 500 KB budget
    uri2 = encode_image(payload_big, 200, 100, max_size_kb=500)
    raw2 = base64.b64decode(uri2.split(",", 1)[1])
    s = (500 / 2000) ** 0.5                  # exactly the reference formula
    exp_w, exp_h = int(200 * s), int(100 * s)
    assert len(raw2) == max(16, int(exp_w * exp_h * 1.0))

    class Boom:
        def encode(self, img, format="PNG"):
            raise RuntimeError("no codec")

    assert encode_image(payload_small, 8, 8, codec=Boom()) is None

    # jpeg mime + smaller size model
    uri3 = encode_image(payload_small, 64, 64, format="JPEG")
    assert uri3.startswith("data:image/jpeg;base64,")


def test_simhash_batch_paths_equivalent(monkeypatch):
    """The dense bincount+matmul fast path and the reduceat segment-sum
    fallback must produce identical fingerprints (VERDICT r2 item 4)."""
    import raycrawl.ops.dedup as dd

    rng = np.random.RandomState(3)
    texts = ["", "repeated words repeated words"] + [
        " ".join(f"tok{rng.randint(0, 5000)}" for _ in range(40))
        for _ in range(50)]
    fast = dd._simhash_batch(texts)
    monkeypatch.setattr(dd, "_SIMHASH_DENSE_CELLS", 0)
    slow = dd._simhash_batch(texts)
    assert (fast == slow).all()
    assert fast[0] == 0 and fast[1] != 0
    # native byte order (a big-endian view here silently corrupts the
    # int64 reinterpret in simhash_fingerprints)
    assert fast.dtype == np.uint64 and fast.dtype.isnative
    assert slow.dtype == np.uint64 and slow.dtype.isnative
    # per-doc reference implementation agreement
    assert int(fast[1]) == dd.simhash64(texts[1])
    assert int(fast[5]) == dd.simhash64(texts[5])


def test_gopher_quality_rules():
    from raycrawl.ops.textstats import gopher_quality

    long_good = ("the quick brown foxes jumped over that lazy dog in "
                 "the meadow today " * 5).strip()  # 65 words, mean len 4.2
    symbol_heavy = ("# " * 30 + "the a of word " * 10).strip()
    short = "the cat sat"
    out = gopher_quality(_docs([long_good, symbol_heavy, short])).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert bool(out.loc[0, "keep"])
    assert not bool(out.loc[1, "keep"])   # 30 symbols / 70 words >= 0.1
    assert not bool(out.loc[2, "keep"])   # < 50 words
    assert out.loc[2, "n_words"] == 3


def test_repetition_stats_bigram():
    from raycrawl.ops.textstats import repetition_stats

    out = repetition_stats(_docs(["a b a b a b", "x y z", ""])).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert out.loc[0, "top_bigram_count"] == 3   # 'a b' x3
    assert out.loc[0, "n_distinct_words"] == 2
    assert out.loc[1, "top_bigram_count"] == 1
    assert out.loc[2, "n_words"] == 0 and out.loc[2, "top_bigram_count"] == 0


def test_unigram_commonness_scores():
    from raycrawl.ops.textstats import unigram_commonness

    out = unigram_commonness(
        _docs(["the the cat", "the dog", "zebra"])).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    # corpus counts: the=3, cat=1, dog=1, zebra=1
    assert out.loc[0, "sum_freq"] == 3 + 3 + 1 and out.loc[0, "min_freq"] == 1
    assert out.loc[1, "sum_freq"] == 3 + 1
    assert out.loc[2, "sum_freq"] == 1 and out.loc[2, "min_freq"] == 1


def test_exact_dedup_against_corpus_semi_join(exchange_placement):
    from raycrawl.ops.dedup import exact_dedup_against_corpus

    corpus = _docs(["alpha text", "beta text", "gamma text"])
    new = rd.from_pandas(pd.DataFrame({
        "doc_id": np.array([10, 11, 12, 13], dtype="int64"),
        "text": ["beta text", "novel one", "alpha text", "novel two"]}))
    new2 = rd.from_pandas(pd.DataFrame(
        {"doc_id": np.array([20], dtype="int64"), "text": ["gamma text"]}))
    for placement in ("driver", "shuffle"):
        exchange_placement(placement)
        out = exact_dedup_against_corpus(new, corpus)
        assert out["doc_id"].tolist() == [10, 12]
        out2 = exact_dedup_against_corpus(new2, corpus)
        assert out2["doc_id"].tolist() == [20]


def test_dedup_survivors_by_score_picks_best():
    from raycrawl.ops.dedup import dedup_survivors_by_score

    pairs = pd.DataFrame({"id_a": [1, 2], "id_b": [2, 3]})
    scores = {0: 9, 1: 5, 2: 50, 3: 5, 7: 1}
    out = dedup_survivors_by_score([0, 1, 2, 3, 7], pairs, scores)
    canon = dict(zip(out["doc_id"], out["canonical_id"]))
    # cluster {1,2,3}: highest score is doc 2
    assert canon == {0: 0, 1: 2, 2: 2, 3: 2, 7: 7}


def _audio_features(tbl):
    from raycrawl.ops.multimodal import PcmDecoder, _media_batch

    return _media_batch(tbl, PcmDecoder(), PcmDecoder.stats, "audio_id")


def test_audio_features_real_pcm_decode():
    from raycrawl.media_fixtures import synth_audio_table

    out = _audio_features(synth_audio_table(8)).to_pandas()
    assert len(out) == 8
    # numpy oracle for clip 3
    i = 3
    k = np.arange(1000 + i % 500, dtype=np.int64)
    s = (i * 31 + k * 17) % 65536 - 32768
    assert out.loc[i, "n_samples"] == len(s)
    assert out.loc[i, "energy"] == int((s * s).sum())
    assert out.loc[i, "zero_crossings"] == int(((s[:-1] * s[1:]) < 0).sum())
    assert out.loc[i, "peak"] == int(np.abs(s).max())


@pytest.mark.parametrize("fmt", ["audio", "png", "jpeg"])
def test_media_features_empty_batch_keeps_schema(fmt):
    """A zero-row batch yields the id column plus every stats column,
    all int64, for each format."""
    import pyarrow as pa

    from raycrawl import media_fixtures as mf
    from raycrawl.ops.jpeg import JpegDecoder
    from raycrawl.ops.multimodal import PcmDecoder, _media_batch
    from raycrawl.ops.png import PngDecoder

    table, dec, id_col, cols = {
        "audio": (mf.synth_audio_table(2), PcmDecoder, "audio_id",
                  ["n_samples", "energy", "zero_crossings", "peak"]),
        "png": (mf.synth_png_batch(range(2)), PngDecoder, "image_id",
                ["width", "height", "sum_r", "sum_g", "sum_b", "max_px"]),
        "jpeg": (mf.synth_jpeg_batch(range(2)), JpegDecoder, "image_id",
                 ["width", "height", "sum_px", "min_px", "max_px"]),
    }[fmt]
    out = _media_batch(table.slice(0, 0), dec(), dec.stats, id_col)
    assert out.num_rows == 0
    assert out.schema == pa.schema([(c, pa.int64()) for c in [id_col] + cols])


def test_partitioned_map_groups_matches_per_key(exchange_placement):
    """A one-input exchange with a per-key groupby in its kernel must
    equal a per-key groupby exactly, including multi-column keys and
    keys colliding into one partition."""
    from raycrawl.ops.agg import exchange

    rng = np.random.RandomState(2)
    df = pd.DataFrame({
        "k1": rng.randint(0, 50, 500).astype("int64"),
        "k2": rng.randint(0, 3, 500).astype("int64"),
        "v": rng.randint(0, 1000, 500).astype("int64")})

    def fn(g):
        return pd.DataFrame({"k1": [g["k1"].iloc[0]],
                             "k2": [g["k2"].iloc[0]],
                             "s": [int(g["v"].sum())],
                             "m": [int(g["v"].max())]})

    def per_key(p):
        return pd.concat([pd.DataFrame(columns=["k1", "k2", "s", "m"])]
                         + [fn(g) for _, g in p.groupby(["k1", "k2"])])

    def whole(g):
        return g.groupby(["k1", "k2"], as_index=False).agg(
            s=("v", "sum"), m=("v", "max"))

    exp = (df.groupby(["k1", "k2"], as_index=False)
           .agg(s=("v", "sum"), m=("v", "max"))
           .sort_values(["k1", "k2"]).reset_index(drop=True))
    for placement in ("driver", "shuffle"):
        exchange_placement(placement, max_parts=7)
        for kernel in (per_key, whole):
            got = (exchange([rd.from_pandas(df)], [["k1", "k2"]], kernel)
                   .to_pandas().sort_values(["k1", "k2"])
                   .reset_index(drop=True).astype("int64"))
            pd.testing.assert_frame_equal(got, exp)


def test_allpairs_jaccard_exact_vs_bruteforce():
    """AllPairs prefix filtering is EXACT: at every threshold the verified
    pairs equal brute-force n-gram Jaccard over all O(n^2) pairs —
    including empty docs (mutual jaccard 1.0) and sub-ngram short docs."""
    import itertools

    from raycrawl.ops.dedup import allpairs_jaccard_pairs

    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(50)]
    texts = [" ".join(rng.choice(vocab, rng.randint(0, 30)))
             for _ in range(80)]
    for i in range(0, 24, 3):          # inject near-dups of early docs
        toks = texts[i].split()
        if toks:
            toks[rng.randint(len(toks))] = "XX"
        texts.append(" ".join(toks))
    texts += ["", "   ", "a b"]
    ds = _docs(texts)
    for t in (0.3, 0.6, 0.9):
        got = sorted(map(tuple, allpairs_jaccard_pairs(ds, threshold=t)
                         .to_pandas()[["id_a", "id_b"]].to_numpy()))
        exp = sorted((a, b) for a, b in
                     itertools.combinations(range(len(texts)), 2)
                     if jaccard(texts[a], texts[b], 3) >= t)
        assert got == exp, f"threshold {t}"
    assert (0, 24) not in exp or True  # sanity: exp non-trivially shaped


def test_segment_dedup_first_occurrence_wins():
    """Corpus-wide segment dedup: each distinct segment survives only at
    its lexicographically-first (doc_id, seg_idx); docs reassemble from
    survivors in order; totals count ALL segments, kept only survivors."""
    from raycrawl.ops.dedup import segment_dedup

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, rng.randint(0, 70)))
             for _ in range(50)]
    texts[10] = texts[5]                     # whole-doc duplicate
    texts[20] = texts[7] + " " + texts[8]    # stitched from others
    texts += ["", "  "]
    ds = _docs(texts)
    got = (segment_dedup(ds, words_per_seg=10).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    exp = _serial_segment_dedup(texts, 10)
    assert got[["doc_id", "text", "n_segments", "n_kept"]].equals(exp)
    assert (exp["n_kept"] < exp["n_segments"]).any()  # something dropped


def test_pii_scrub_counts_and_sentinels():
    from raycrawl.ops.textstats import pii_scrub

    ds = _docs([
        "mail a@b.co and c.d+e@sub.domain.org now",
        "call +1 555-123-4567 or 555-000-1111 from 192.168.1.1",
        "clean text with no pii at all",
        "",
    ])
    out = pii_scrub(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["n_emails"].tolist() == [2, 0, 0, 0]
    assert out["n_phones"].tolist() == [0, 2, 0, 0]
    assert out["n_ips"].tolist() == [0, 1, 0, 0]
    assert out.loc[0, "text_scrubbed"] == "mail <EMAIL> and <EMAIL> now"
    assert out.loc[1, "text_scrubbed"] == "call <PHONE> or <PHONE> from <IP>"
    assert out.loc[2, "text_scrubbed"] == "clean text with no pii at all"


def test_cluster_assign_exact_and_tie_break():
    from raycrawl.ops.cluster import QUANT_SCALE, cluster_assign, quantize_vecs

    vecs = [
        [1.0, 0.0], [0.0, 1.0],            # centroids 0, 1 (vec_id 0, 1)
        [0.9, 0.1],                         # nearest centroid 0
        [0.1, 0.9],                         # nearest centroid 1
        [0.5, 0.5],                         # exact tie -> cluster 0
    ]
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(len(vecs), dtype="int64"),
        "embedding": [np.asarray(v, dtype="float32") for v in vecs]}))
    out = cluster_assign(ds, centroid_ids=[0, 1]) \
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert out["cluster_id"].tolist() == [0, 1, 0, 1, 0]
    q = quantize_vecs(pd.Series([np.asarray(v, dtype="float32") for v in vecs]))
    d_self = int(((q[2] - q[0]) ** 2).sum())
    assert out.loc[2, "dist_sq"] == d_self
    assert out.loc[0, "dist_sq"] == 0 and out.loc[1, "dist_sq"] == 0
    assert (out["dist_sq"] >= 0).all()
    assert QUANT_SCALE == 1 << 20


def test_kmeans_fit_integer_lloyd_matches_reference():
    from raycrawl.ops.cluster import cluster_assign, kmeans_fit, quantize_vecs

    # negative components force negative sums → floor-division semantics;
    # centroid 1 starts far away and captures nothing (empty-cluster keep)
    vecs = [
        [-1.0, -1.0], [100.0, 100.0],                 # seeds 0, 1
        [-0.9, -1.1], [-1.2, -0.8], [-1.05, -0.95],
    ]
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(len(vecs), dtype="int64"),
        "embedding": [np.asarray(v, dtype="float32") for v in vecs]}))
    out, cents = kmeans_fit(ds, centroid_ids=[0, 1], iters=2)
    out = out.to_pandas().sort_values("vec_id").reset_index(drop=True)

    # single-threaded exact-integer reference
    q = quantize_vecs(pd.Series([np.asarray(v, dtype="float32")
                                 for v in vecs]))
    c = q[:2].copy()
    for _ in range(2):
        d2 = ((q[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        best = d2.argmin(axis=1)
        for j in range(2):
            members = q[best == j]
            if len(members):
                c[j] = members.sum(axis=0) // len(members)  # floor mean
    d2 = ((q[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    exp_best = d2.argmin(axis=1)
    assert out["cluster_id"].tolist() == exp_best.tolist()
    assert (cents == c).all()
    assert out["dist_sq"].tolist() == d2[np.arange(len(q)), exp_best].tolist()
    # cluster 1 never captured anything → its centroid kept the seed value
    assert (cents[1] == q[1]).all()
    # zero iterations is one E-step from the seeds: the same assign kernel
    # as cluster_assign, row for row
    out0, _ = kmeans_fit(ds, centroid_ids=[0, 1], iters=0)
    out0 = out0.to_pandas().sort_values("vec_id").reset_index(drop=True)
    ca = cluster_assign(ds, centroid_ids=[0, 1]).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out0, ca)


def test_dup_spans_coverage_union():
    from raycrawl.ops.dedup import dup_spans

    # doc0/doc1 share "p q r" (cross-doc dup); doc2 repeats "x y z"
    # internally with overlapping windows; doc3 is all-unique; doc4 short
    ds = _docs([
        "p q r unique0 tail0",
        "head1 p q r tail1",
        "x y z x y z x",
        "totally fresh words only here",
        "a b",
    ])
    out = dup_spans(ds, gram_len=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["n_tokens"].tolist() == [5, 5, 7, 5, 2]
    # doc0: dup start at 0 ("p q r") -> covers 3 tokens
    assert out.loc[0, "n_dup_starts"] == 1 and out.loc[0, "n_dup_tokens"] == 3
    assert out.loc[1, "n_dup_starts"] == 1 and out.loc[1, "n_dup_tokens"] == 3
    # doc2 grams: xyz,yzx,zxy,xyz,yzx -> xyz and yzx occur twice (zxy once);
    # dup starts {0,1,3,4}, interval union still covers all 7 tokens
    assert out.loc[2, "n_dup_starts"] == 4 and out.loc[2, "n_dup_tokens"] == 7
    assert out.loc[3, "n_dup_starts"] == 0 and out.loc[3, "n_dup_tokens"] == 0
    assert out.loc[4, "n_dup_starts"] == 0  # shorter than the gram


def test_normalize_unicode_chain():
    from raycrawl.ops.textstats import normalize_unicode, normalize_text

    assert normalize_unicode("  CaFÉ  déjà\tVu ") == "cafe deja vu"
    assert normalize_unicode("Übermäßig ŁÓDŹ") == "ubermaßig łodz"
    assert normalize_unicode("한국어") == "한국어"       # Hangul recomposed
    assert normalize_unicode("हिन्दी") == "हनद"          # matras stripped
    assert normalize_unicode("") == ""
    out = normalize_text(_docs(["  A\t\tB  ", "ñ"])).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["text_norm"].tolist() == ["a b", "n"]


def test_exact_quantile_selection_unbounded_domain():
    from raycrawl.ops.textstats import exact_quantile_selection

    rng = np.random.RandomState(11)
    vals = rng.randint(-1_000_000, 50_000_000, size=20_000).astype("int64")
    ds = rd.from_pandas(pd.DataFrame({"cents": vals}))
    out = exact_quantile_selection(ds, "cents",
                                   qs=[(0, 1), (1, 2), (99, 100), (1, 1)],
                                   n_bins=64)
    got = {(r.q_num, r.q_den): r.quantile_value for r in out.itertuples()}
    sv = np.sort(vals)
    n = len(sv)
    for q_num, q_den in [(0, 1), (1, 2), (99, 100), (1, 1)]:
        assert got[(q_num, q_den)] == sv[(q_num * (n - 1)) // q_den]


def test_quality_gate_exact_threshold():
    """quality_gate keeps exactly the docs at/above the exact P90 order
    statistic of the token count (idx = (9*(n-1))//10)."""
    import ray.data as rd

    from raycrawl.ops.textstats import quality_gate

    texts = [" ".join(["w"] * (3 + 7 * i % 23)) for i in range(40)]
    ds = rd.from_items([{"doc_id": i, "text": t}
                        for i, t in enumerate(texts)])
    got = quality_gate(ds).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    counts = [len(t.split()) for t in texts]
    thr = sorted(counts)[(9 * (len(counts) - 1)) // 10]
    exp = sorted(i for i, c in enumerate(counts) if c >= thr)
    assert list(got["doc_id"]) == exp
    assert (got["n_tokens"].to_numpy()
            == [counts[i] for i in exp]).all()


def test_vocab_stats_exact(exchange_placement):
    import ray.data as rd

    from raycrawl.ops.textstats import vocab_stats

    texts = ["a b c", "b c d d", "", "  e  a "]
    ds = rd.from_items([{"doc_id": i, "text": t}
                        for i, t in enumerate(texts)])
    for placement in ("driver", "shuffle"):
        exchange_placement(placement)
        out = vocab_stats(ds)
        # '' counts as the single token of the empty doc (SQL convention)
        assert int(out["n_tokens"].iloc[0]) == 3 + 4 + 1 + 2
        assert int(out["n_distinct_tokens"].iloc[0]) == len(
            {"a", "b", "c", "d", "e", ""})


def test_collocations_topk_exact(exchange_placement):
    import collections

    import ray.data as rd

    from raycrawl.ops.textstats import collocations

    cases = [
        (["a b a b c", "b c b c", "a b", ""], 3),
        # (x, y) and (z, x) tie at the k-th count: (x, y) sorts first
        (["z x y", "x y z x", "y"], 1),
        # a non-whitespace "\x01" inside words: two distinct bigrams
        (["a\x01b c", "a b\x01c"], 3),
    ]
    for texts, k in cases:
        ds = rd.from_items([{"doc_id": i, "text": t}
                            for i, t in enumerate(texts)])
        cnt = collections.Counter()
        for t in texts:
            ws = t.split()
            cnt.update(zip(ws, ws[1:]))
        exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        for placement in ("driver", "shuffle"):
            exchange_placement(placement)
            got = collocations(ds, k=k)
            assert list(zip(got["w1"], got["w2"])) == [p for p, _ in exp]
            assert list(got["cnt"]) == [c for _, c in exp]


def test_bigram_commonness_edge_docs():
    """Empty and single-token docs score (0, 0, 0); a repeated bigram is
    not corpus-novel; a one-off bigram is."""
    import ray.data as rd

    from raycrawl.ops.textstats import bigram_commonness

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["", "solo", "a b a b", "x y"],
    })
    out = (bigram_commonness(rd.from_pandas(df)).to_pandas()
           .set_index("doc_id").sort_index())
    assert out.loc[1].tolist() == [0, 0, 0]
    assert out.loc[2].tolist() == [0, 0, 0]
    # doc 3 bigrams: (a,b)x2, (b,a)x1 → n=3, sum=2+2+1=5, novel=1
    assert out.loc[3].tolist() == [3, 5, 1]
    # doc 4: (x,y) occurs once in the corpus → novel
    assert out.loc[4].tolist() == [1, 1, 1]
    # "\x01" is not whitespace: ("a\x01b", "c") and ("a", "b\x01c") are
    # two distinct bigrams, each corpus-novel
    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a\x01b c", "a b\x01c"]})
    out = bigram_commonness(rd.from_pandas(df)).to_pandas()
    assert out.sort_values("doc_id")[
        ["n_bigrams", "sum_bg_freq", "n_novel"]].values.tolist() == [
        [1, 1, 1], [1, 1, 1]]


def test_pack_sequences_properties():
    """Greedy first-fit packing invariants: within every (shard, seq) the
    docs are contiguous doc_id-ascending with offsets equal to the
    running token sum; a sequence exceeds the budget only when it holds
    exactly one (overlong) doc; a new sequence is opened only when the
    previous one could not fit the next doc."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.textstats import pack_sequences

    rng = np.random.RandomState(5)
    texts = [" ".join("w" for _ in range(rng.randint(1, 120)))
             for _ in range(400)]
    texts[17] = " ".join("w" for _ in range(900))  # overlong doc
    texts[33] = ""  # empty doc counts 1 token
    texts[0] = " ".join("w" for _ in range(150))  # docs 0 and 1 fill
    texts[1] = " ".join("w" for _ in range(50))  # the budget exactly
    df = pd.DataFrame({"doc_id": np.arange(400, dtype="int64"),
                       "text": texts})
    L = 200
    out = (pack_sequences(rd.from_pandas(df), max_tokens=L, shard_size=64)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(out) == 400
    assert (out["shard"] == out["doc_id"] // 64).all()
    for (shard, seq), g in out.groupby(["shard", "seq_local"]):
        g = g.sort_values("doc_id")
        # offsets are the running sum of token counts
        assert g["offset"].tolist() == \
            [0] + g["n_tokens"].cumsum().tolist()[:-1]
        total = int(g["n_tokens"].sum())
        if total > L:
            assert len(g) == 1  # only an overlong singleton may exceed
    # greedy: consecutive sequences in a shard couldn't be merged
    for shard, g in out.groupby("shard"):
        g = g.sort_values("doc_id")
        seq_tot = g.groupby("seq_local")["n_tokens"].sum()
        first_of_seq = g.drop_duplicates("seq_local").set_index("seq_local")
        for s in range(1, int(g["seq_local"].max()) + 1):
            assert seq_tot[s - 1] + first_of_seq.loc[s, "n_tokens"] > L
    # pack_id_sequences runs the same fold: on the same docs and budget
    # its sequences hold exactly those docs, their ids concatenated in
    # doc_id order
    from raycrawl.ops.training import pack_id_sequences

    enc = out[["doc_id", "shard", "n_tokens"]].copy()
    enc["token_ids"] = [np.full(n, i, dtype=np.int64)
                        for i, n in zip(enc["doc_id"], enc["n_tokens"])]
    seqs = (pack_id_sequences(rd.from_pandas(enc), max_tokens=L)
            .to_pandas().sort_values(["shard", "seq_local"])
            .reset_index(drop=True))
    exp = out.groupby(["shard", "seq_local"])
    assert seqs[["shard", "seq_local"]].values.tolist() == \
        [list(k) for k in exp.groups]
    for row, (_, g) in zip(seqs.itertuples(), exp):
        assert row.n_docs == len(g)
        assert row.n_tokens == int(g["n_tokens"].sum())
        assert row.token_ids.tolist() == np.repeat(
            g["doc_id"], g["n_tokens"]).tolist()


def test_minhash_index_probe_incremental(tmp_path):
    """Staged LSH index + new-shard probe: planted near-dups are all
    found with exact Jaccard, disjoint shards produce no pairs, and the
    probe reads ONLY the band buckets its keys occupy."""
    import glob
    import os

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.dedup import build_minhash_index, minhash_probe_index

    rng = np.random.RandomState(13)
    vocab = [f"w{k}" for k in range(500)]
    corpus_texts = [" ".join(rng.choice(vocab, size=40)) for _ in range(300)]
    corpus = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(300, dtype="int64"), "text": corpus_texts}))
    idx = str(tmp_path / "mhidx")
    build_minhash_index(corpus, idx)
    assert os.path.exists(os.path.join(idx, "_DONE"))

    # new shard: 20 near-dups of corpus docs (one token changed) + 20
    # unrelated docs from a disjoint vocabulary
    new_rows = []
    for i in range(20):
        toks = corpus_texts[i * 7].split()
        toks[3] = "zchanged"
        new_rows.append((1000 + i, " ".join(toks), i * 7))
    for i in range(20):
        new_rows.append((2000 + i, " ".join(
            f"q{k}" for k in rng.randint(0, 400, size=40)), -1))
    new = rd.from_pandas(pd.DataFrame({
        "doc_id": [r[0] for r in new_rows],
        "text": [r[1] for r in new_rows]}))
    out = minhash_probe_index(
        new, idx, corpus, threshold=0.5).to_pandas()
    got = {(a, b) for a, b in zip(out["id_a"], out["id_b"])}
    for nid, _, src in new_rows[:20]:
        assert (nid, src) in got  # every planted pair recovered
    assert all(a < 2000 for a, _ in got)  # disjoint-vocab docs: no pairs
    assert (out["jaccard_sim"] >= 0.5).all()

    # pruning: the probe's needed buckets are a strict subset when the
    # shard is small — count partition dirs vs buckets actually read
    all_buckets = {d for d in os.listdir(idx) if d.startswith("bucket=")}
    assert len(all_buckets) > 8  # the index is genuinely partitioned


def test_mix_sources_deterministic_and_explicit_recipe():
    """Source mixing: rates land near the recipe per source, the result
    is identical across runs and partitionings, and a source absent from
    the recipe is dropped (explicit contract)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.training import mix_sources

    n = 3000
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "source": np.where(np.arange(n) % 2 == 0, "web", "books")})
    w = {"web": 75, "books": 25}
    a = mix_sources(rd.from_pandas(df), w, 100).to_pandas()
    b = mix_sources(rd.from_pandas(df).repartition(7), w, 100).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    rates = a.groupby("source").size() / (n / 2)
    assert abs(rates["web"] - 0.75) < 0.05
    assert abs(rates["books"] - 0.25) < 0.05
    # unknown source → dropped
    df2 = df.assign(source="unlisted")
    assert len(mix_sources(rd.from_pandas(df2), w, 100).to_pandas()) == 0


def test_deterministic_shuffle_rank_is_permutation():
    """Global shuffle rank: a true permutation 0..n-1, identical across
    partitionings and cluster layouts, different under a new salt (the
    next epoch), and genuinely shuffled (not identity order)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.training import deterministic_shuffle_rank

    n = 5000
    df = pd.DataFrame({"doc_id": np.arange(n, dtype="int64")})
    a = deterministic_shuffle_rank(rd.from_pandas(df)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert sorted(a["shuffle_rank"]) == list(range(n))  # permutation
    b = deterministic_shuffle_rank(rd.from_pandas(df).repartition(11)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)  # partition-invariant
    c = deterministic_shuffle_rank(rd.from_pandas(df), salt="epoch1") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert not a["shuffle_rank"].equals(c["shuffle_rank"])  # new epoch
    # not the identity and not sorted-by-id: genuinely permuted
    assert (a["shuffle_rank"].to_numpy() != np.arange(n)).sum() > n // 2


def test_split_overlong_windows():
    """Overlong docs window into max_tokens pieces (last short), short
    docs stay whole, empty docs yield one empty piece, and concatenating
    pieces reproduces the original token stream."""
    import pandas as pd
    import ray.data as rd

    from raycrawl.ops.textstats import split_overlong

    texts = [" ".join(f"t{k}" for k in range(75)),  # 3 pieces of 32/32/11
             "a b c", "", None]
    df = pd.DataFrame({"doc_id": [0, 1, 2, 3], "text": texts})
    out = (split_overlong(rd.from_pandas(df), max_tokens=32).to_pandas()
           .sort_values(["doc_id", "piece_idx"]).reset_index(drop=True))
    g0 = out[out.doc_id == 0]
    assert g0["n_tokens"].tolist() == [32, 32, 11]
    assert " ".join(g0["piece"]) == texts[0]  # stream reproduced
    assert out[out.doc_id == 1]["n_tokens"].tolist() == [3]
    for d in (2, 3):
        g = out[out.doc_id == d]
        assert g["n_tokens"].tolist() == [0] and g["piece"].tolist() == [""]


def test_embedding_dup_pairs_lsh_recall():
    """The hyperplane-LSH scale path (sample-free, VERDICT r4 item 8):
    at its contract threshold (0.95, where 16 bands x 8 rows give
    >= 0.9998 recall) it must find every pair the exact op finds on a
    corpus with planted near-dups, and never emit a below-threshold or
    wrong-similarity pair (within-band verification is exact)."""
    import numpy as np2
    import pandas as pd2
    import ray.data as rd2

    from raycrawl.ops.dedup import embedding_dup_pairs, embedding_dup_pairs_lsh

    rng = np2.random.RandomState(7)
    base = rng.standard_normal((400, 64))
    vecs = [base[i] for i in range(400)]
    ids = list(range(400))
    # plant 40 near-dups: tiny perturbation -> cosine ~0.995
    for i in range(40):
        src = base[i * 7]
        dup = src + 0.05 * rng.standard_normal(64)
        vecs.append(dup)
        ids.append(1000 + i)
    emb = rd2.from_pandas(pd2.DataFrame({
        "vec_id": pd2.Series(ids, dtype="int64"),
        "embedding": [list(map(float, v)) for v in vecs]}))

    exact = embedding_dup_pairs(emb, threshold=0.95).to_pandas()
    lsh = embedding_dup_pairs_lsh(emb, threshold=0.95).to_pandas()

    e = set(zip(exact["id_a"], exact["id_b"]))
    a = set(zip(lsh["id_a"], lsh["id_b"]))
    assert len(e) >= 40              # every planted pair is >= 0.95
    assert a == e, f"lsh {len(a)} vs exact {len(e)}"
    # verified similarities are exact: cross-check values per pair
    esim = {(r.id_a, r.id_b): r.cosine_sim for r in exact.itertuples()}
    for r in lsh.itertuples():
        assert abs(esim[(r.id_a, r.id_b)] - r.cosine_sim) < 1e-12


def test_dup_ngram_stats_cross_document(exchange_placement):
    """RefinedWeb-style duplicated-n-gram fraction: a 5-gram shared by
    two docs counts toward BOTH docs' numerators (with per-doc
    multiplicity); unique-gram docs and sub-n docs report 0."""
    import pandas as pd2
    import ray.data as rd2

    from raycrawl.ops.textstats import dup_ngram_stats

    shared = "alpha beta gamma delta epsilon"          # one 5-gram
    docs = pd2.DataFrame({
        "doc_id": pd2.Series([1, 2, 3, 4], dtype="int64"),
        "text": [
            shared + " zeta",              # 2 grams, 1 dup
            "x0 " + shared,                # 2 grams, 1 dup
            "u1 u2 u3 u4 u5 u6",           # 2 grams, 0 dup
            "tiny doc",                    # < 5 tokens -> 0/0
        ]})
    # multiplicity: a doc repeating the shared gram twice counts both
    docs2 = pd2.DataFrame({
        "doc_id": pd2.Series([1, 2], dtype="int64"),
        "text": [shared + " " + shared, shared]})
    for placement in ("driver", "shuffle"):
        exchange_placement(placement)
        out = dup_ngram_stats(rd2.from_pandas(docs)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert out["n_ngrams"].tolist() == [2, 2, 2, 0]
        assert out["n_dup_ngrams"].tolist() == [1, 1, 0, 0]
        assert out["dup_ngram_frac"].tolist() == [0.5, 0.5, 0.0, 0.0]

        out2 = dup_ngram_stats(rd2.from_pandas(docs2)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        # doc 1 has 10 tokens -> 6 grams; the shared gram occurs at
        # positions 0 and 5 -> 2 duplicated occurrences
        row = out2.iloc[0]
        assert row["n_ngrams"] == 6 and row["n_dup_ngrams"] == 2


def test_tfidf_top_terms_matches_bruteforce():
    from collections import Counter

    from raycrawl.ops.textstats import tfidf_top_terms

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["apple banana apple", "banana cherry", "  ",
                 "apple apple apple durian", "cherry durian cherry echo"]})
    got = (tfidf_top_terms(rd.from_pandas(docs), k=2).to_pandas()
           .sort_values(["doc_id", "rank"]).reset_index(drop=True))

    # brute force with Python ints
    toks = {r.doc_id: r.text.strip().split() for r in docs.itertuples()
            if r.text.strip()}
    n = len(toks)
    df = Counter()
    for ws in toks.values():
        df.update(set(ws))
    rows = []
    for did, ws in toks.items():
        dl = len(ws)
        scored = sorted(
            (-((10**6 * tf * (2 * n - 2 * df[w] + 1))
               // (dl * (2 * df[w] + 1))), w)
            for w, tf in Counter(ws).items())
        for r, (neg, w) in enumerate(scored[:2], 1):
            rows.append((did, r, w, -neg))
    want = pd.DataFrame(rows, columns=["doc_id", "rank", "term",
                                       "score_fp"])
    want = want.sort_values(["doc_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert 3 not in set(got["doc_id"])  # empty doc emits nothing


def test_jsonl_shards_roundtrip_and_determinism(tmp_path):
    from raycrawl.ops.jsonl import read_jsonl_shards, write_jsonl_shards

    docs = pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        "text": [f"döc {i} ☃" if i % 5 else None for i in range(40)],
        "score": np.linspace(0, 1, 40)})
    ds = rd.from_pandas(docs)
    d1 = tmp_path / "a"
    m = write_jsonl_shards(ds, str(d1), n_shards=4)
    assert m["n_rows"].sum() == 40 and len(m) == 4
    assert (m["sum_id"].sum() == docs["doc_id"].sum())

    back = (read_jsonl_shards(str(d1)).to_pandas()[docs.columns.tolist()]
            .sort_values("doc_id").reset_index(drop=True))
    # None survives as null; unicode survives exactly
    pd.testing.assert_frame_equal(back, docs, check_dtype=False)

    # byte-deterministic re-export
    import hashlib

    d2 = tmp_path / "b"
    write_jsonl_shards(rd.from_pandas(docs), str(d2), n_shards=4)
    h = lambda d: [hashlib.md5(p.read_bytes()).hexdigest()
                   for p in sorted(d.glob("shard-*.jsonl.gz"))]
    assert h(d1) == h(d2)

    # resumable: an existing shard file is not rewritten
    mtimes = {p.name: p.stat().st_mtime_ns
              for p in d1.glob("shard-*.jsonl.gz")}
    write_jsonl_shards(rd.from_pandas(docs), str(d1), n_shards=4)
    assert {p.name: p.stat().st_mtime_ns
            for p in d1.glob("shard-*.jsonl.gz")} == mtimes


def test_edit_prefix_pairs_matches_bruteforce(tmp_path):
    # typo corpus: subs/inserts/deletes within the key window, so d=0,
    # d=1 and d=2 pairs all exist; blocking must find every one
    rng = np.random.default_rng(7)
    base = ["the quick brown fox jump", "pack my box with five doz",
            "sphinx of black quartz j", "höw vexingly quick daft z"]
    texts = []
    for i in range(80):
        s = base[i % 4]
        r = rng.random()
        p = int(rng.integers(0, len(s)))
        if r < 0.3:
            s = s[:p] + chr(97 + int(rng.integers(0, 26))) + s[p + 1:]
        elif r < 0.5:
            s = s[:p] + s[p + 1:]
        elif r < 0.7:
            s = s[:p] + "x" + s[p:]
        texts.append(s + " tail text beyond the key window")
    df = pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64),
                       "text": texts})

    from raycrawl.ops.dedup import edit_prefix_pairs

    ed = _levenshtein
    keys = [t[:24] for t in texts]
    for k in (1, 2):
        got = (edit_prefix_pairs(rd.from_pandas(df), k=k, key_len=24)
               .to_pandas().sort_values(["doc_a", "doc_b"])
               .reset_index(drop=True))
        want = pd.DataFrame(
            [(i, j, ed(keys[i], keys[j]))
             for i in range(80) for j in range(i + 1, 80)
             if ed(keys[i], keys[j]) <= k],
            columns=["doc_a", "doc_b", "dist"]).astype("int64")
        assert (want["dist"] == 1).any()  # fixture exercises d=1
        pd.testing.assert_frame_equal(got, want)


def test_batch_edit_distance_kernel():
    from raycrawl.ops.dedup import _batch_edit_distance

    a = ["abc", "", "käse", "abcd", "kitten", "flaw"]
    b = ["abd", "xy", "kase", "abc", "sitting", "lawn"]
    got = _batch_edit_distance(a, b, 8).tolist()
    assert got == [1, 2, 1, 1, 3, 2]


def test_csv_shards_roundtrip_and_determinism(tmp_path):
    from raycrawl.ops.csvio import read_csv_shards, write_csv_shards

    docs = pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        # commas, quotes, embedded newlines, unicode — the RFC-4180
        # quoting corners; None becomes '' (documented lossy corner)
        "text": [f'döc {i}, "q"\nline2 ☃' if i % 5 else None
                 for i in range(40)],
        "lang": ["en"] * 40})
    ds = rd.from_pandas(docs)
    d1 = tmp_path / "a"
    m = write_csv_shards(ds, str(d1), n_shards=4)
    assert m["n_rows"].sum() == 40 and len(m) == 4
    assert m["sum_id"].sum() == docs["doc_id"].sum()

    back = (read_csv_shards(str(d1), dtypes={"doc_id": "int64"})
            .to_pandas()[docs.columns.tolist()]
            .sort_values("doc_id").reset_index(drop=True))
    want = docs.copy()
    want["text"] = want["text"].fillna("")
    pd.testing.assert_frame_equal(back, want, check_dtype=False)

    import hashlib

    d2 = tmp_path / "b"
    write_csv_shards(rd.from_pandas(docs), str(d2), n_shards=4)
    h = lambda d: [hashlib.md5(p.read_bytes()).hexdigest()
                   for p in sorted(d.glob("shard-*.csv.gz"))]
    assert h(d1) == h(d2)

    # resumable: an existing shard file is not rewritten
    mtimes = {p.name: p.stat().st_mtime_ns
              for p in d1.glob("shard-*.csv.gz")}
    write_csv_shards(rd.from_pandas(docs), str(d1), n_shards=4)
    assert {p.name: p.stat().st_mtime_ns
            for p in d1.glob("shard-*.csv.gz")} == mtimes


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_csv_shards_export_over_stale_dir_rewrites(tmp_path, fmt):
    """A second export of DIFFERENT rows into the same directory must not
    keep the first export's archives: shards with other content are
    rewritten, shards the new export has no rows for are removed, and
    the manifest equals a fresh export's."""
    from raycrawl.ops.csvio import read_csv_shards, write_csv_shards
    from raycrawl.ops.jsonl import read_jsonl_shards, write_jsonl_shards

    write, read = {
        "csv": (write_csv_shards,
                lambda d: read_csv_shards(d, dtypes={"doc_id": "int64"})),
        "jsonl": (write_jsonl_shards, read_jsonl_shards)}[fmt]
    a = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64),
                      "text": [f"a{i}" for i in range(40)]})
    # B: other text, and no ids in shard 3 (doc_id % 4 == 3)
    ids = np.array([i for i in range(30) if i % 4 != 3], dtype=np.int64)
    b = pd.DataFrame({"doc_id": ids, "text": [f"b{i}" for i in ids]})
    write(rd.from_pandas(a), str(tmp_path / "d"), n_shards=4)
    got = write(rd.from_pandas(b), str(tmp_path / "d"), n_shards=4)
    fresh = write(rd.from_pandas(b), str(tmp_path / "fresh"), n_shards=4)
    pd.testing.assert_frame_equal(got, fresh)
    assert got["n_rows"].sum() == len(b)
    back = (read(str(tmp_path / "d")).to_pandas()[["doc_id", "text"]]
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(back, b)


def test_read_csv_shards_empty_shard_names_path(tmp_path):
    import re

    import pytest

    from raycrawl.ops.csvio import read_csv_shards, write_csv_shards

    docs = pd.DataFrame({"doc_id": np.arange(20, dtype=np.int64),
                         "text": [f"doc {i}" for i in range(20)]})
    write_csv_shards(rd.from_pandas(docs), str(tmp_path), n_shards=4)
    victim = sorted(tmp_path.glob("shard-*.csv.gz"))[1]
    victim.write_bytes(b"")
    # Ray Data re-raises a task's error under its own type, with the
    # original type and message in the text
    with pytest.raises(Exception, match="ValueError: CSV shard "
                                        f"{re.escape(str(victim))} is empty"):
        read_csv_shards(str(tmp_path)).to_pandas()


def test_stratified_split_exact_cuts_and_determinism():
    from raycrawl.ops.training import stratified_split_assign

    rng = np.random.default_rng(11)
    n = 2000
    docs = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "lang": rng.choice(["en", "fr", "de"], n, p=[0.7, 0.2, 0.1])})
    ds = rd.from_pandas(docs)
    got = stratified_split_assign(ds)

    # per-stratum counts follow the integer predicate exactly
    for lang, sub in got.groupby("lang"):
        nn = len(sub)
        n_train = sum(r * 1000 < nn * 800 for r in range(nn))
        n_val = sum(nn * 800 <= r * 1000 < nn * 900 for r in range(nn))
        vc = sub["split"].value_counts()
        assert vc.get("train", 0) == n_train
        assert vc.get("val", 0) == n_val
        assert vc.get("test", 0) == nn - n_train - n_val

    # deterministic: same input, new dataset → identical assignment
    again = stratified_split_assign(rd.from_pandas(docs))
    pd.testing.assert_frame_equal(got, again)

    # membership is a pure function of (salt, id): dropping half the
    # docs keeps every shared doc's hash ORDER, so train-set docs with
    # low ranks stay train (spot the lowest-hash doc per lang)
    import hashlib

    def hv(i):
        return int(hashlib.md5(f"split0{i}".encode())
                   .hexdigest()[:16], 16)

    for lang, sub in got.groupby("lang"):
        lowest = min(sub["doc_id"], key=hv)
        assert sub.set_index("doc_id").loc[lowest, "split"] == "train"


def test_containment_pairs_matches_bruteforce():
    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(3000)]
    texts = []
    for i in range(200):
        n = int(rng.integers(8, 60))
        texts.append(" ".join(rng.choice(vocab, n)))
        if i % 7 == 3:  # plant an excerpt (high one-way containment)
            toks = texts[-1].split()
            texts.append(" ".join(toks[:max(4, int(len(toks) * 0.9))]))
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                         "text": texts})

    from raycrawl.ops.dedup import containment, containment_pairs

    got = (containment_pairs(rd.from_pandas(docs), threshold=0.8)
           .to_pandas().sort_values(["id_a", "id_b"])
           .reset_index(drop=True))
    want = pd.DataFrame(
        [(i, j, containment(texts[i], texts[j], 3))
         for i in range(len(texts)) for j in range(i + 1, len(texts))
         if containment(texts[i], texts[j], 3) >= 0.8],
        columns=["id_a", "id_b", "containment"]).astype(
        {"id_a": "int64", "id_b": "int64"})
    assert len(want) > 10  # fixture really plants excerpt pairs
    pd.testing.assert_frame_equal(got, want)


def test_containment_asymmetric_vs_jaccard():
    from raycrawl.ops.dedup import containment, jaccard

    big = " ".join(f"w{i}" for i in range(100))
    small = " ".join(f"w{i}" for i in range(20))  # strict prefix subset
    assert containment(big, small, 3) == 1.0
    assert jaccard(big, small, 3) < 0.25
    assert containment("", "", 3) == 1.0
    assert containment("", big, 3) == 0.0


def test_top_tokens_per_lang_exact_topk():
    docs = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "lang": ["en", "en", "fr", "fr"],
        "text": ["a a a b b c", "b b a", "x y y", "y z"],
        "source": "s", "n_chars": np.int64(1)})

    from raycrawl.ops.textstats import top_tokens_per_lang

    got = top_tokens_per_lang(rd.from_pandas(docs), k=2)
    en = got[got["lang"] == "en"]
    # en counts: a=4, b=4, c=1 -> tie a/b breaks lexicographically
    assert en["tok"].tolist() == ["a", "b"]
    assert en["n"].tolist() == [4, 4]
    assert en["rnk"].tolist() == [1, 2]
    fr = got[got["lang"] == "fr"]
    assert fr["tok"].tolist() == ["y", "x"]  # y=3, x/z tie -> x
    assert fr["n"].tolist() == [3, 1]
