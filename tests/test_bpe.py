"""BPE tokenizer (raycrawl/ops/bpe.py): the distributed train+tokenize
pipeline must agree with an INDEPENDENT serial implementation (different
algorithm: full-text character training with in-order merge replay vs the
engine's bounded word-table training with rank-argmax application), plus
the Sennrich et al. worked example and structural properties."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from raycrawl.ops.bpe import (bpe_encode_reference_serial, bpe_token_count,
                              bpe_train, bpe_train_from_word_counts,
                              distributed_word_counts, _apply_merges, _EOW)


def test_sennrich_worked_example():
    """ACL'16 §3.2 shape: 'low'-family corpus. With counts low:5,
    lower:2, newest:6, widest:3 the first merges join the frequent
    suffix 'est</w>' family."""
    wc = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    merges = bpe_train_from_word_counts(wc, 4)
    assert merges[0] == ("e", "s")        # 9 occurrences, lexic. smallest
    assert merges[1] == ("es", "t")       # 9
    assert merges[2] == ("est", _EOW)     # 9
    assert merges[3] == ("l", "o")        # 7
    # tokenization under those merges
    ranks = {p: i for i, p in enumerate(merges)}
    assert _apply_merges("newest", ranks) == ["n", "e", "w", "est</w>"]
    assert _apply_merges("low", ranks) == ["lo", "w", _EOW]


def test_engine_matches_independent_serial_reference():
    rng = np.random.RandomState(7)
    vocab = ["alpha", "beta", "gamma", "delta", "alphabet", "better",
             "gambit", "declaim", "alpine", "betray"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(3, 30)))
             for _ in range(200)]
    texts += ["", "   "]  # empty/blank docs
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                       "text": texts})
    ds = rd.from_pandas(df)

    ref_merges, ref_counts, _ = bpe_encode_reference_serial(texts, 40)
    merges = bpe_train(ds, num_merges=40)
    assert merges == ref_merges

    got = (bpe_token_count(rd.from_pandas(df), merges).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["n_bpe_tokens"].tolist() == ref_counts


def test_more_merges_never_increase_token_count():
    texts = ["the cat sat on the mat", "the bat and the rat",
             "concatenate the patterns"] * 10
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                       "text": texts})
    prev = None
    for k in (0, 5, 20, 60):
        merges = bpe_train(rd.from_pandas(df), num_merges=k)
        tot = int(bpe_token_count(rd.from_pandas(df), merges)
                  .to_pandas()["n_bpe_tokens"].sum())
        if prev is not None:
            assert tot <= prev
        prev = tot
    # k=0: every word is chars + </w>
    merges0 = bpe_train(rd.from_pandas(df), num_merges=0)
    assert merges0 == []


def test_zero_merges_token_count_closed_form():
    texts = ["ab cde", "x"]
    df = pd.DataFrame({"doc_id": [0, 1], "text": texts})
    got = (bpe_token_count(rd.from_pandas(df), []).to_pandas()
           .sort_values("doc_id"))
    # chars + 1 (</w>) per word
    assert got["n_bpe_tokens"].tolist() == [(2 + 1) + (3 + 1), 1 + 1]
    assert got["n_words"].tolist() == [2, 1]


def test_word_counts_bounded_and_exact(exchange_placement, monkeypatch):
    from raycrawl.ops import textstats
    from raycrawl.ops.agg import placement_log

    texts = ["a a a b b c"] * 5
    small = pd.DataFrame({"doc_id": np.arange(5, dtype="int64"),
                          "text": texts})
    # the cap keeps the most frequent types, deterministically: 200
    # types (word i occurs i + 1 times, plus a tie at the cut) in two
    # blocks over 4 partitions, so every call and every output block
    # holds more types than the cap and is truncated
    words = [f"w{i:03d}" for i in range(200)]
    texts = [" ".join(words[j:]) for j in range(200)] + ["w189"]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                       "text": texts})
    exp = {f"w{i:03d}": i + 1 for i in range(191, 200)}
    exp["w189"] = 191  # ties w190 at the cut and sorts first by word
    monkeypatch.setattr(textstats, "_VOCAB_TOP_K", 10)
    for placement, parts in (("driver", 0), ("shuffle", 4)):
        exchange_placement(placement, max_parts=4)
        assert distributed_word_counts(rd.from_pandas(small)) == {
            "a": 15, "b": 10, "c": 5}
        with placement_log() as log:
            capped = distributed_word_counts(
                rd.from_pandas([df.iloc[:100], df.iloc[100:]]))
        assert capped == exp
        assert [r["parts"] for r in log] == [parts]


def test_training_stops_on_singleton_pairs():
    # every pair unique → nothing worth merging
    wc = {"abc": 1, "def": 1}
    assert bpe_train_from_word_counts(wc, 10) == []


def test_incremental_trainer_equals_reference():
    """The production incremental trainer (pair-delta + lazy heap) must
    learn the identical merge sequence as the full-recount reference on
    random word tables, including deep merge counts."""
    from raycrawl.ops.bpe import bpe_train_incremental

    rng = np.random.RandomState(11)
    alpha = "abcdef"  # small alphabet → heavy pair collisions and ties
    for trial in range(5):
        wc = {}
        while len(wc) < 300:
            L = rng.randint(2, 12)
            w = "".join(alpha[k] for k in rng.randint(0, len(alpha), L))
            wc.setdefault(w, int(rng.randint(1, 50)))
        for k in (5, 37, 120):
            ref = bpe_train_from_word_counts(dict(wc), k)
            fast = bpe_train_incremental(dict(wc), k)
            assert fast == ref, (trial, k)


def test_encode_ids_match_serial_reference():
    from raycrawl.ops.bpe import (bpe_encode, bpe_encode_reference_serial,
                                  build_vocab_ids, distributed_word_counts)

    rng = np.random.RandomState(3)
    vocab = ["pack", "packet", "packing", "racket", "rocket", "socket"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(1, 12)))
             for _ in range(80)] + [""]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                       "text": texts})
    ref_merges, ref_counts, ref_csv = bpe_encode_reference_serial(texts, 25)
    wc = distributed_word_counts(rd.from_pandas(df))
    merges = bpe_train(rd.from_pandas(df), num_merges=25)
    assert merges == ref_merges
    vids = build_vocab_ids(wc, merges)
    got = (bpe_encode(rd.from_pandas(df), merges, vids).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["ids_csv"].tolist() == ref_csv
    assert got["n_bpe_tokens"].tolist() == ref_counts
    # ids are dense over the observed vocabulary: base chars then merges
    all_ids = {int(x) for s in ref_csv if s for x in s.split(",")}
    assert min(all_ids) >= 0  # training corpus == encode corpus: no UNK
    assert max(all_ids) < len(vids)


def test_build_training_shards_composition(tmp_path):
    """End-to-end shard builder: token totals conserved vs
    bpe_token_count, budget invariant per sequence, deterministic across
    runs, shard-partitioned layout on disk."""
    import glob
    import os

    import pyarrow.parquet as pq_

    from raycrawl.ops.bpe import bpe_token_count
    from raycrawl.ops.training import build_training_shards

    rng = np.random.RandomState(9)
    vocab = ["alpha", "beta", "gamma", "delta", "omega"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(2, 40)))
             for _ in range(300)]
    df = pd.DataFrame({"doc_id": np.arange(300, dtype="int64"),
                       "text": texts})
    out1 = str(tmp_path / "shards1")
    man = build_training_shards(rd.from_pandas(df), out1, num_merges=30,
                                max_tokens=128, shard_size=64)
    assert man["shards"] == 5 and man["sequences"] > 5

    merges = bpe_train(rd.from_pandas(df), num_merges=30)
    per_doc = bpe_token_count(rd.from_pandas(df), merges).to_pandas()
    assert man["tokens"] == int(per_doc["n_bpe_tokens"].sum())

    files = glob.glob(os.path.join(out1, "shard=*", "*.parquet"))
    t = pq_.read_table(files[0])
    assert set(t.column_names) >= {"seq_local", "n_docs", "n_tokens",
                                   "token_ids"}
    allt = pq_.read_table(files)  # budget invariant across every shard
    for n_tok, n_docs, ids in zip(allt.column("n_tokens").to_pylist(),
                                  allt.column("n_docs").to_pylist(),
                                  allt.column("token_ids").to_pylist()):
        assert len(ids) == n_tok
        assert n_tok <= 128 or n_docs == 1

    out2 = str(tmp_path / "shards2")
    man2 = build_training_shards(rd.from_pandas(df), out2, num_merges=30,
                                 max_tokens=128, shard_size=64)
    assert man2 == man  # deterministic end to end
