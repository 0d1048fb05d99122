"""End-to-end training-shard builder: documents → token-id sequences.

The composition every LLM data pipeline ships: train BPE on the corpus
(one distributed pass + incremental driver training, ops/bpe.py), encode
every document to subword ids, greedily pack the id streams into
token-budgeted sequences within doc-id shards (ops/textstats.py
pack_sequences semantics), and write one parquet partition per shard —
so a failed run re-emits only unfinished shards and two runs produce
byte-identical shard contents (everything downstream of the corpus is
deterministic).

Each component is independently oracle-checked (`text_bpe_encode`,
`text_pack_sequences`); this module is the glue and is pinned by a
composition test (total tokens conserved, budget invariant, determinism,
shard layout).

The corpus recipe steps before it live here too, each a pure function of
md5(salt‖id) and oracle-checked: source-weighted mixing (``mix_sources``,
`corpus_mix`), a global shuffle order (``deterministic_shuffle_rank``,
`corpus_shuffle`) and stratified train/val/test splits
(``stratified_split_assign``, `docs_split_assign`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..schema import DOC_ID, LANG, SOURCE
from .bpe import (_encode, bpe_train_incremental, build_vocab_ids,
                  distributed_word_counts)
from .textstats import _pack


def encode_ids(ds, merges, vocab_ids, shard_size: int = 512):
    """(doc_id, shard, n_tokens, token_ids: list<int64>) — the id-list
    sibling of bpe.bpe_encode (which emits csv for the SQL compare),
    from the same encode stage (``bpe._encode``)."""

    def finish(batch: pd.DataFrame, docs: list) -> pd.DataFrame:
        d = batch[DOC_ID].astype("int64")
        return pd.DataFrame({
            DOC_ID: d, "shard": d // shard_size,
            "n_tokens": pd.Series([len(x) for x in docs], dtype="int64"),
            "token_ids": [np.asarray(x, dtype=np.int64) for x in docs]})

    return _encode(ds, merges, vocab_ids, finish)


def pack_id_sequences(encoded, max_tokens: int = 1024):
    """Greedy first-fit of encoded docs into sequences within their
    shard (the fold of textstats.pack_sequences, ``textstats._pack``,
    here carrying the actual ids): one row per SEQUENCE — (shard,
    seq_local, n_docs, n_tokens, token_ids) with the member docs' ids
    concatenated in doc_id order."""
    from .agg import exchange

    def pack(part: pd.DataFrame) -> pd.DataFrame:
        seqs = _pack(part, max_tokens).groupby(
            ["shard", "seq_local"], sort=False)
        out = seqs.agg(n_docs=(DOC_ID, "size"),
                       n_tokens=("n_tokens", "sum")).reset_index()
        out["token_ids"] = [np.concatenate([np.empty(0, np.int64), *ids])
                            for _, ids in seqs["token_ids"]]
        return out.astype({c: "int64" for c in (
            "shard", "seq_local", "n_docs", "n_tokens")})

    return exchange([encoded], ["shard"], pack)


def build_training_shards(ds, out_dir: str, num_merges: int = 200,
                          max_tokens: int = 1024,
                          shard_size: int = 512) -> dict:
    """The full product: train → encode → pack → shard-partitioned
    parquet under ``out_dir`` (one ``shard=N`` directory each — the
    resumable-output convention). Returns the run manifest
    {merges, vocab_size, shards, sequences, tokens}."""
    wc = distributed_word_counts(ds)
    merges = bpe_train_incremental(wc, num_merges)
    vids = build_vocab_ids(wc, merges)
    enc = encode_ids(ds, merges, vids, shard_size=shard_size)
    packed = pack_id_sequences(enc, max_tokens=max_tokens).materialize()
    n_seq = packed.count()
    tot = sum(int(b["n_tokens"].sum()) for b in
              packed.iter_batches(batch_size=None, batch_format="pandas"))
    shards = len(set().union(*[set(b["shard"].tolist()) for b in
                               packed.iter_batches(batch_size=None,
                                                   batch_format="pandas")]))
    packed.write_parquet(out_dir, partition_cols=["shard"])
    return {"merges": len(merges), "vocab_size": len(vids),
            "shards": shards, "sequences": n_seq, "tokens": tot}


# md5 salts of the recipe steps: one fixed mix and one fixed split
_MIX_SALT = "mix0"
_SPLIT_SALT = "split0"
_SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train, val, test


def mix_sources(ds, weights: "dict[str, int]", weight_scale: int):
    """Deterministic source-weighted corpus MIXING — the RedPajama/Pile
    'data recipe' step: every source keeps its rows with probability
    weights[source]/weight_scale, decided by ``md5(_MIX_SALT||doc_id)``
    (reproducible across runs, partitionings and cluster sizes;
    consistent between tables sharing the key). Rows of a source absent
    from ``weights`` are dropped — an explicit recipe is the contract.
    Integer-exact (hash60·scale < w·2^60), so the SQL oracle replays it
    bit-for-bit."""
    import hashlib as _hl

    def f(b: pd.DataFrame) -> pd.DataFrame:
        keep = []
        for k, s in zip(b[DOC_ID], b[SOURCE]):
            w = weights.get(s)
            keep.append(
                w is not None and
                int(_hl.md5(f"{_MIX_SALT}{k}".encode()).hexdigest()[:15], 16)
                * weight_scale < int(w) * (1 << 60))
        return b[pd.Series(keep, index=b.index)]

    return ds.map_batches(f, batch_format="pandas", batch_size=65536)


# range buckets per stratum in _hash_rank: hv's top byte
_SPLIT_BUCKETS = 256


def _hash_rank(ds, salt: str, stratum_col, finish):
    """Exact rank of every row within its stratum in ascending (hv, id)
    order, hv = first 64 bits of md5(salt‖doc_id), without a global sort or
    co-locating any whole stratum on one worker: hv's top byte
    range-buckets each stratum, a driver table of (stratum, bucket)
    counts — bounded by |strata|·256, never corpus size — gives prefix
    offsets, and within-bucket (hv, id) argsorts finish the rank.
    ``stratum_col=None`` ranks the whole dataset as one stratum.

    ``finish(g, rank, n)`` runs inside each partition task on the
    (hv, id)-sorted rows ``g``, their 0-based stratum ranks and their
    stratum sizes, and returns that partition's output frame."""
    import hashlib as _hl

    import ray

    from .agg import exchange

    strat = [] if stratum_col is None else [stratum_col]
    keys = strat + ["__bucket"]

    def hashed(b: pd.DataFrame) -> pd.DataFrame:
        hv = np.fromiter(
            (int(_hl.md5(f"{salt}{k}".encode()).hexdigest()[:16], 16)
             for k in b[DOC_ID]), dtype=np.uint64, count=len(b))
        return pd.DataFrame({
            DOC_ID: b[DOC_ID].astype("int64"),
            **{c: b[c] for c in strat},
            "__h": hv.view(np.int64),
            "__bucket": (hv // np.uint64((1 << 64) // _SPLIT_BUCKETS)
                         ).astype("int64")})

    hds = ds.map_batches(hashed, batch_format="pandas").materialize()

    counts: dict = {}
    for b in hds.iter_batches(batch_format="pandas", batch_size=None):
        if not len(b):
            continue
        for k, c in b.groupby(keys).size().items():
            s, bk = k if strat else (None, k)
            counts[(s, int(bk))] = counts.get((s, int(bk)), 0) + int(c)
    offsets: dict = {}
    totals: dict = {}
    for s in sorted({s for s, _ in counts}):
        run = 0
        for bk in range(_SPLIT_BUCKETS):
            c = counts.get((s, bk), 0)
            if c:
                offsets[(s, bk)] = run
            run += c
        totals[s] = run
    oref = ray.put((offsets, totals))

    def rank_part(g: pd.DataFrame) -> pd.DataFrame:
        offs, tots = ray.get(oref)
        # rank order is (hv as uint64, id); a global (hv, id) sort also
        # orders every (stratum, bucket) group internally, and the
        # per-group cumcount below is interleaving-safe
        hu = g["__h"].to_numpy().view(np.uint64)
        g = g.iloc[np.lexsort((g[DOC_ID].to_numpy(), hu))]
        local = g.groupby(keys, sort=False).cumcount().to_numpy(np.int64)
        ss = g[stratum_col].tolist() if strat else [None] * len(g)
        off = np.fromiter(
            (offs[(s, int(bk))] for s, bk in zip(ss, g["__bucket"])),
            dtype=np.int64, count=len(g))
        n = np.fromiter((tots[s] for s in ss), dtype=np.int64, count=len(g))
        return finish(g, off + local, n)

    return exchange([hds], [keys], rank_part)


def deterministic_shuffle_rank(ds, salt: str = "sh0"):
    """Deterministic GLOBAL shuffle order — reproducible training-epoch
    shuffling: every row's ``shuffle_rank`` is its position in ascending
    ``md5(salt||doc_id)`` order (ties — practically impossible at 64
    bits — break by doc_id). Unlike ``Dataset.random_shuffle`` the permutation is
    identical across runs, partitionings and cluster sizes, and a new
    epoch is just a new salt. The single-stratum case of
    :func:`_hash_rank`, so no node ever materializes a global sort."""
    return _hash_rank(
        ds, salt, None,
        lambda g, rank, n: pd.DataFrame({DOC_ID: g[DOC_ID].to_numpy(),
                                         "shuffle_rank": rank}))


def stratified_split_assign(ds) -> pd.DataFrame:
    """Deterministic stratified train/val/test assignment with EXACT
    per-stratum cut points — the split every training pipeline needs:
    within each language stratum the docs whose stratum-rank r
    satisfies ``r·1000 < n·⌊f_train·1000⌋`` go to train (= ⌈f_train·n⌉
    docs), the next band to val, the rest to test, with fractions
    ``_SPLIT_FRACTIONS`` — an integer predicate both sides replay
    verbatim — and membership is a pure function of (``_SPLIT_SALT``,
    doc_id) so re-runs,
    re-partitions and incremental corpus versions agree on every doc
    they share a stratum-rank for.

    Distributed shape: the grouped global ranking of :func:`_hash_rank`
    keyed per stratum (strata are few; a stratum is usually most of the
    corpus, so none may co-locate on one worker). Thresholds replay in
    integer floor arithmetic on both sides."""
    f_train, f_val, _ = _SPLIT_FRACTIONS
    tr_num = int(round(f_train * 1000))
    va_num = int(round((f_train + f_val) * 1000))

    def finish(g: pd.DataFrame, r0, n) -> pd.DataFrame:
        split = np.where(r0 * 1000 < n * tr_num, "train",
                         np.where(r0 * 1000 < n * va_num, "val", "test"))
        return pd.DataFrame({DOC_ID: g[DOC_ID].to_numpy(np.int64),
                             LANG: g[LANG].to_numpy(),
                             "split": split})

    from .agg import _frame

    out = _frame(_hash_rank(ds, _SPLIT_SALT, LANG, finish),
                 pd.DataFrame(columns=[DOC_ID, LANG, "split"]))
    out[DOC_ID] = out[DOC_ID].astype("int64")
    return out.sort_values(DOC_ID).reset_index(drop=True)
