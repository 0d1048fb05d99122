"""Byte-pair-encoding tokenizer: distributed corpus training + tokenize.

The canonical LLM-data operator the token-counting family was missing:
train a BPE merge table on the corpus, then count/emit subword tokens per
document. Public algorithm (Sennrich, Haddow & Birch, ACL'16 — the
reference implementation pattern every modern trainer follows):

1. **Word counts** — ONE distributed pass over the corpus through the
   text ops' one corpus counter (``textstats._bounded_topk_vocab``:
   exact top-K with driver memory O(top_k) no matter the corpus size;
   at web scale the type table IS capped at
   ``textstats._VOCAB_TOP_K``, exactly as production trainers cap their
   alphabet/word tables).
2. **Training** — iterate on the COMPRESSED (word → count) table on the
   driver: pair frequencies are weighted by word count, the argmax pair
   is merged everywhere, repeat for ``num_merges``. This is the standard
   trainer shape (HF tokenizers trains GPT-2's 50k merges from a word
   table the same way) — the corpus is touched once, not per merge.
   Deterministic: ties broken by (count desc, pair lexicographic asc).
3. **Tokenize** — one encode stage (``_encode``) under every output:
   the merge-rank dict broadcast via ``ray.put``; each batch tokenizes
   its UNIQUE words once (per-batch memo). ``bpe_token_count`` emits
   per-doc counts, ``bpe_encode`` comma-joined ids and
   ``training.encode_ids`` id lists.

End-of-word marker: ``</w>`` appended to each word's symbol sequence
(the original paper's convention), so merges distinguish suffix from
prefix contexts.

Verification: tests/test_bpe.py cross-checks the whole pipeline against
an INDEPENDENT serial implementation (``bpe_encode_reference_serial``)
that works on raw full texts character-by-character (no word table, no
top-K, merges replayed in training order) — two algorithms, one answer
— plus the paper's worked 'low/lower/newest/widest' example.
"""

from __future__ import annotations

import pandas as pd

_EOW = "</w>"


# ---------------------------------------------------------------------------
# training (driver-side, over the bounded word table)
# ---------------------------------------------------------------------------

def _pair_counts(vocab: "dict[tuple[str, ...], int]") -> "dict[tuple[str, str], int]":
    counts: dict[tuple[str, str], int] = {}
    for syms, c in vocab.items():
        for a, b in zip(syms, syms[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + c
    return counts


def _merge_vocab(vocab: "dict[tuple[str, ...], int]",
                 pair: "tuple[str, str]") -> "dict[tuple[str, ...], int]":
    a, b = pair
    ab = a + b
    out: dict[tuple[str, ...], int] = {}
    for syms, c in vocab.items():
        if a not in syms:
            out[syms] = out.get(syms, 0) + c
            continue
        merged: list[str] = []
        i = 0
        n = len(syms)
        while i < n:
            if i + 1 < n and syms[i] == a and syms[i + 1] == b:
                merged.append(ab)
                i += 2
            else:
                merged.append(syms[i])
                i += 1
        key = tuple(merged)
        out[key] = out.get(key, 0) + c
    return out


def bpe_train_from_word_counts(word_counts: "dict[str, int]",
                               num_merges: int) -> "list[tuple[str, str]]":
    """Reference BPE training loop over a (word → count) table — full
    pair recount + full vocab rewrite per merge, O(types × merges).
    Kept as the obviously-correct specification the incremental trainer
    is equivalence-tested against; production calls go through
    ``bpe_train_incremental`` (measured 400 ms/merge at 100k types here
    vs ~1 ms/merge incremental — a 32k-merge GPT-2-class vocab needs the
    incremental form).

    Deterministic tie-break: highest count, then lexicographically
    smallest pair — so two runs (and the serial test reference) always
    learn the identical merge sequence. Stops early when no pair occurs
    twice (merging singletons is noise)."""
    vocab = {tuple(w) + (_EOW,): c for w, c in word_counts.items() if w}
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        counts = _pair_counts(vocab)
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if best[1] < 2:
            break
        merges.append(best[0])
        vocab = _merge_vocab(vocab, best[0])
    return merges


def bpe_train_incremental(word_counts: "dict[str, int]",
                          num_merges: int) -> "list[tuple[str, str]]":
    """Incremental BPE trainer — the production-shape algorithm every
    real trainer uses (HF tokenizers, SentencePiece): pair counts are
    maintained as DELTAS over only the words a merge touches (indexed by
    a pair → word-ids map), and selection is a lazy max-heap keyed
    (-count, pair) whose stale entries are skipped on pop (an update
    pushes a fresh entry, so the live count is always present). Per
    merge: O(affected words × word length + log-heap pushes) instead of
    O(all types). Identical output to ``bpe_train_from_word_counts``
    (same tie-break, equivalence-tested), including the rare case where
    a later merge recreates an earlier pair's adjacency."""
    import heapq

    items = [(w, c) for w, c in word_counts.items() if w]
    words: list[list[str]] = [list(w) + [_EOW] for w, _ in items]
    counts: list[int] = [c for _, c in items]

    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}
    for i, syms in enumerate(words):
        c = counts[i]
        for q in zip(syms, syms[1:]):
            pair_counts[q] = pair_counts.get(q, 0) + c
            pair_words.setdefault(q, set()).add(i)

    heap = [(-c, q) for q, c in pair_counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []

    while len(merges) < num_merges and heap:
        negc, p = heapq.heappop(heap)
        cur = pair_counts.get(p, 0)
        if -negc != cur or cur == 0:
            continue  # stale entry — the updating push carries the truth
        if cur < 2:
            break
        merges.append(p)
        a, b = p
        ab = a + b
        touched: set[tuple[str, str]] = set()
        for i in list(pair_words.get(p, ())):
            syms = words[i]
            c = counts[i]
            for q in zip(syms, syms[1:]):
                pair_counts[q] -= c
            new: list[str] = []
            j = 0
            n = len(syms)
            while j < n:
                if j + 1 < n and syms[j] == a and syms[j + 1] == b:
                    new.append(ab)
                    j += 2
                else:
                    new.append(syms[j])
                    j += 1
            words[i] = new
            for q in zip(new, new[1:]):
                pair_counts[q] = pair_counts.get(q, 0) + c
                pair_words.setdefault(q, set()).add(i)
            oldpairs = set(zip(syms, syms[1:]))
            newpairs = set(zip(new, new[1:]))
            for q in oldpairs - newpairs:
                s = pair_words.get(q)
                if s is not None:
                    s.discard(i)
            touched |= oldpairs | newpairs
        for q in touched:
            cq = pair_counts.get(q, 0)
            if cq > 0:
                heapq.heappush(heap, (-cq, q))
            else:
                pair_counts.pop(q, None)
                pair_words.pop(q, None)
    return merges


def distributed_word_counts(ds, text_col: str = "text") -> "dict[str, int]":
    """One corpus pass → exact bounded (word → count) table (see module
    header)."""
    from . import textstats

    top = textstats._bounded_topk_vocab(ds, text_col, str.split, ["w"],
                                        textstats._VOCAB_TOP_K)
    return dict(zip(top["w"], top["cnt"]))


def bpe_train(ds, text_col: str = "text",
              num_merges: int = 100) -> "list[tuple[str, str]]":
    """Distributed pass 1 + incremental driver training → merge list."""
    return bpe_train_incremental(distributed_word_counts(ds, text_col),
                                 num_merges)


# ---------------------------------------------------------------------------
# tokenization (distributed, broadcast merge ranks)
# ---------------------------------------------------------------------------

def _apply_merges(word: str, ranks: "dict[tuple[str, str], int]") -> "list[str]":
    """Tokenize one word: repeatedly merge the LOWEST-RANK adjacent pair
    (the GPT-2 application order — equivalent to replaying the training
    merges in sequence)."""
    syms = list(word) + [_EOW]
    while len(syms) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_i = i
        if best_rank is None:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


def _encode(ds, merges: "list[tuple[str, str]]", vocab_ids, text_col: str,
            finish):
    """The one BPE encode stage: the merge ranks (and the token-id table
    ``vocab_ids``, when not None) broadcast once via ``ray.put``; each
    batch encodes its unique words once (memo — web text repeats words
    heavily, so the memo turns O(tokens) work into O(types) per batch)
    and returns ``finish(batch, docs)``, where ``docs`` holds one list
    per document: its symbols, or their ids (-1 for a symbol outside
    the table — the documented UNK convention)."""
    import ray

    ref = ray.put(({p: i for i, p in enumerate(merges)}, vocab_ids))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        ranks, vids = ray.get(ref)
        memo: dict[str, list] = {}
        docs = []
        for t in batch[text_col].fillna(""):
            toks: list = []
            for w in t.split():
                got = memo.get(w)
                if got is None:
                    got = _apply_merges(w, ranks)
                    if vids is not None:
                        got = [vids.get(s, -1) for s in got]
                    memo[w] = got
                toks.extend(got)
            docs.append(toks)
        return finish(batch, docs)

    return ds.map_batches(f, batch_format="pandas")


def bpe_token_count(ds, merges: "list[tuple[str, str]]",
                    id_col: str = "doc_id", text_col: str = "text"):
    """(doc_id, n_bpe_tokens, n_words): subword token count per document
    under the trained merge table (``_encode``)."""

    def finish(batch: pd.DataFrame, docs: list) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: batch[id_col],
            "n_bpe_tokens": pd.Series([len(d) for d in docs], dtype="int64"),
            "n_words": pd.Series([len(t.split()) for t in
                                  batch[text_col].fillna("")],
                                 dtype="int64")})

    return _encode(ds, merges, None, text_col, finish)


def bpe_encode_reference_serial(texts: "list[str]",
                                num_merges: int) -> "tuple[list, list, list]":
    """INDEPENDENT serial reference for equivalence testing: trains on
    the full raw texts by splitting every occurrence (no word-count
    table, no top-K) and tokenizes by replaying merges IN TRAINING ORDER
    over each word's symbols (not the rank-argmax application) — a
    different algorithm whose agreement with the engine is the test.
    Ids via the shared ``build_vocab_ids`` convention. Returns (merges,
    per-doc token counts, per-doc comma-joined ids)."""
    from collections import Counter

    words: Counter = Counter()
    for t in texts:
        words.update((t or "").split())
    type_seqs = {w: list(w) + [_EOW] for w in words}
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pc: Counter = Counter()
        for w, syms in type_seqs.items():
            c = words[w]
            for a, b in zip(syms, syms[1:]):
                pc[(a, b)] += c
        if not pc:
            break
        best = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        if best[1] < 2:
            break
        (a, b) = best[0]
        merges.append((a, b))
        for w, syms in type_seqs.items():
            i = 0
            out: list[str] = []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            type_seqs[w] = out
    vids = build_vocab_ids(dict(words), merges)
    counts, csv = [], []
    for t in texts:
        ids: list[int] = []
        for w in (t or "").split():
            ids.extend(vids.get(s, -1) for s in type_seqs[w])
        counts.append(len(ids))
        csv.append(",".join(map(str, ids)))
    return merges, counts, csv


# ---------------------------------------------------------------------------
# token-id emission (the training-data product: text → id sequences)
# ---------------------------------------------------------------------------

def build_vocab_ids(word_counts: "dict[str, int]",
                    merges: "list[tuple[str, str]]") -> "dict[str, int]":
    """Deterministic token-string → id table: the base alphabet (sorted
    distinct characters of the word table, then the end-of-word marker)
    takes ids 0..A-1, each merge PRODUCT takes A+merge_index. Two merges
    that produce the same string (e.g. ('a','bc') and ('ab','c')) map
    the string to the LATER id — a pure convention, applied identically
    by the engine and the serial oracle."""
    alphabet = sorted({c for w in word_counts for c in w}) + [_EOW]
    ids = {s: i for i, s in enumerate(alphabet)}
    for j, (a, b) in enumerate(merges):
        ids[a + b] = len(alphabet) + j
    return ids


def bpe_encode(ds, merges: "list[tuple[str, str]]",
               vocab_ids: "dict[str, int]",
               id_col: str = "doc_id", text_col: str = "text"):
    """(doc_id, n_bpe_tokens, ids_csv): the actual training-token
    product — every document's subword-id sequence (comma-joined for an
    exact string compare; ``training.encode_ids`` emits list<int64> for
    ``training.pack_id_sequences``), from the one encode stage
    (``_encode``)."""

    def finish(batch: pd.DataFrame, docs: list) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: batch[id_col],
            "n_bpe_tokens": pd.Series([len(d) for d in docs], dtype="int64"),
            "ids_csv": [",".join(map(str, d)) for d in docs]})

    return _encode(ds, merges, vocab_ids, text_col, finish)
