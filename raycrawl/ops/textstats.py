"""Text analysis operators: token counting, quality scoring, TF-IDF key
terms, language ID, document fingerprinting, exact corpus quantiles. All
vectorized-per-batch ``map_batches`` stages over the ``documents`` table;
stopword/profile tables are tiny constants compiled once per actor.

Every metric here is defined so the DuckDB oracle can compute the identical
value (integer counts and exact integer-ratio doubles — single IEEE
division on both sides), except the fingerprint/language heuristics which
are rows-only checks.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..schema import DOC_ID, LANG, TEXT

_SENT_RE = re.compile(r"[.!?]")

STOPWORDS_EN = ("the", "a", "an", "and", "of", "to", "in", "is", "it", "that")
# tiny language profiles (function words) for the n-gram/stopword heuristic
LANG_PROFILES = {
    "en": {"the", "a", "and", "of", "to", "in", "is", "it", "that", "for", "on", "with"},
    "fr": {"le", "la", "les", "de", "des", "et", "un", "une", "est", "que", "pour", "dans"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "den", "von", "mit", "für"},
    "es": {"el", "la", "los", "las", "de", "y", "un", "una", "es", "que", "por", "con"},
}


def token_count(ds):
    """(doc_id, n_tokens): whitespace tokenization, matching DuckDB
    ``length(regexp_split_to_array(trim(text), '\\s+'))``."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[TEXT].fillna("").apply(lambda t: len(t.split()) or 1)
        return pd.DataFrame({DOC_ID: batch[DOC_ID], "n_tokens": toks.astype("int64")})

    return ds.map_batches(f, batch_format="pandas")


def quality_score(ds):
    """(doc_id, n_chars, n_words, n_sentences, n_stopwords, stop_ratio,
    mean_word_len) — boilerplate/quality heuristics with exact SQL
    equivalents (counts + one integer division each)."""
    stop = set(STOPWORDS_EN)

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[TEXT].fillna("")
        n_chars = texts.str.len().astype("int64")
        words = texts.apply(str.split)
        n_words = words.apply(len).astype("int64")
        n_sent = texts.apply(lambda t: len(_SENT_RE.findall(t))).astype("int64")
        n_stop = words.apply(lambda ws: sum(1 for w in ws if w in stop)).astype("int64")
        total_word_chars = words.apply(lambda ws: sum(len(w) for w in ws)).astype("int64")
        stop_ratio = np.where(n_words > 0, n_stop / n_words.clip(lower=1), 0.0)
        mean_word_len = np.where(n_words > 0,
                                 total_word_chars / n_words.clip(lower=1), 0.0)
        return pd.DataFrame({
            DOC_ID: batch[DOC_ID],
            "n_chars": n_chars,
            "n_words": n_words,
            "n_sentences": n_sent,
            "n_stopwords": n_stop,
            "stop_ratio": stop_ratio,
            "mean_word_len": mean_word_len,
        })

    return ds.map_batches(f, batch_format="pandas")


def gopher_quality(ds):
    """Gopher-style document quality rules (Rae et al. 2021, Appendix A —
    public heuristics), restricted to the word-level subset whose values a
    SQL engine reproduces exactly (the sf documents are single-line, so
    the line-shape rules are vacuous on this corpus): word count in
    [50, 100k], mean word length in [3, 10], symbol-to-word ratio
    ('#' plus non-overlapping '...') < 0.1, ≥ 80% of words containing an
    alphabetic character, ≥ 2 distinct English stop words. Every
    threshold is applied as an integer cross-multiplication — no float
    compares — so the keep flag is bit-exact against the oracle."""
    stop = set(STOPWORDS_EN)
    alpha_re = re.compile(r"[A-Za-z]")

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[TEXT].fillna("")
        words = texts.apply(str.split)
        n_words = words.apply(len).astype("int64")
        twc = words.apply(lambda ws: sum(len(w) for w in ws)).astype("int64")
        alpha = words.apply(
            lambda ws: sum(1 for w in ws if alpha_re.search(w))).astype("int64")
        # str.count is non-overlapping left-to-right — identical to the
        # oracle's (length - length(replace(...))) arithmetic
        sym = texts.apply(lambda t: t.count("#") + t.count("...")) \
            .astype("int64")
        stops = words.apply(
            lambda ws: len(stop.intersection(ws))).astype("int64")
        keep = ((n_words >= 50) & (n_words <= 100_000)
                & (3 * n_words <= twc) & (twc <= 10 * n_words)
                & (10 * sym < n_words)
                & (5 * alpha >= 4 * n_words)
                & (stops >= 2))
        return pd.DataFrame({
            DOC_ID: batch[DOC_ID], "n_words": n_words,
            "total_word_chars": twc, "n_alpha_words": alpha,
            "n_symbols": sym, "n_stop_distinct": stops,
            "keep": keep.astype(bool)})

    return ds.map_batches(f, batch_format="pandas")


def repetition_stats(ds):
    """Repetition signals in the Gopher family (Rae et al. 2021 §A1.1):
    distinct-word count (duplicate-word fraction = 1 − distinct/total) and
    the occurrence count of the most frequent adjacent word bigram. All
    integers — exact against the SQL oracle."""
    from collections import Counter

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[TEXT].fillna("")
        words = texts.apply(str.split)
        n_words = words.apply(len).astype("int64")
        n_distinct = words.apply(lambda ws: len(set(ws))).astype("int64")
        top_bg = words.apply(
            lambda ws: max(Counter(zip(ws, ws[1:])).values())
            if len(ws) >= 2 else 0).astype("int64")
        return pd.DataFrame({
            DOC_ID: batch[DOC_ID], "n_words": n_words,
            "n_distinct_words": n_distinct,
            "top_bigram_count": top_bg})

    return ds.map_batches(f, batch_format="pandas")


# Distinct grams a corpus vocabulary keeps (exact top-K, see
# _bounded_topk_vocab). Read on the driver each time an op is called.
_VOCAB_TOP_K = 1_000_000


def _bigrams(t: str):
    """Adjacent whitespace-token pairs of one text."""
    ws = t.split()
    return zip(ws, ws[1:])


def _bounded_topk_vocab(ds, grams, keys: "list[str]",
                        top_k: int, group: "str | None" = None
                        ) -> pd.DataFrame:
    """The corpus gram counter, with BOUNDED driver memory: every text's
    ``grams(text)`` counted corpus-wide into an EXACT top-``top_k``
    table of (``group``, *``keys``, cnt) rows, ordered (group asc, cnt
    desc, keys asc). A gram is one value per key column (a tuple when
    there are several); with a ``group`` column (one key column), the
    top-``top_k`` is kept per group value.

    Shape: per-batch Counter partials → ``agg.exchange`` keyed by the
    gram (inside one kernel call, each gram's TOTAL corpus count is
    complete) → per-call exact sum + deterministic top-K truncation →
    every output block truncated in place → a driver fold of the blocks
    through the same truncation. Because every gram's total is confined
    to one call, the global top-K is a subset of the union of per-call
    top-Ks, so the retained counts are EXACT — exact distributed top-K,
    not a sketch. When the corpus has ≤ top_k distinct grams nothing is
    truncated (the case at every sf benchmark scale, keeping the SQL
    oracles exact). At web scale driver RSS is O(top_k) whatever the
    corpus size (the `commonness` probe in tools/probes.py drives ≥10M
    distinct grams)."""
    from collections import Counter
    from operator import itemgetter

    import pyarrow.compute as pc

    from .agg import exchange

    by = ([group] if group else []) + keys
    order = ([group] if group else []) + ["cnt"] + keys
    sort_keys = [(c, "descending" if c == "cnt" else "ascending")
                 for c in order]

    def table(c) -> pa.Table:
        # Arrow, not pandas: the exchange is sized by the measured bytes,
        # and a pandas block counts every string's Python object header.
        # itemgetter, not zip(*c): for the 1.4M bigrams of a 65,536-doc
        # batch, unpacking the keys as arguments took 1.9 s, itemgetter
        # 0.14 s (one core of a 4-vCPU VM)
        cols = ([list(c)] if len(by) == 1 else
                [list(map(itemgetter(i), c)) for i in range(len(by))])
        return pa.table({**{k: pa.array(v, pa.string())
                            for k, v in zip(by, cols)},
                         "cnt": pa.array(list(c.values()), pa.int64())})

    def count_batch(batch: pd.DataFrame) -> pa.Table:
        c: Counter = Counter()
        texts = batch[TEXT].fillna("")
        if group is None:
            for t in texts:
                c.update(grams(t))
        else:
            for g, t in zip(batch[group], texts):
                c.update((g, w) for w in grams(t))
        return table(c)

    def ranked(t: pd.DataFrame) -> pd.DataFrame:
        # Arrow ranks string keys far faster than a pandas multi-column
        # sort: 1.0 s against 13.9 s for 1.3M bigrams (same core)
        return t.iloc[pc.sort_indices(pa.Table.from_pandas(
            t[order], preserve_index=False), sort_keys=sort_keys).to_numpy()]

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        t = g.groupby(by, as_index=False, sort=False)["cnt"].sum()
        if len(t) > top_k:
            t = ranked(t)
            t = (t.groupby(group, sort=False) if group else t).head(top_k)
        return t

    partials = ds.map_batches(count_batch, batch_format="pandas",
                              batch_size=65536)
    # each gram sits in one call's output, so truncating every output
    # block in place, then folding the blocks through the same
    # truncation keeps the driver at O(top_k) however many partitions
    # the exchange cut
    top = table({}).to_pandas()
    for b in exchange([partials], [by], combine).map_batches(
            combine, batch_format="pandas", batch_size=None).iter_batches(
            batch_size=None, batch_format="pandas"):
        if len(b):
            top = combine(pd.concat([top, b], ignore_index=True))
    return ranked(top).reset_index(drop=True)


def unigram_commonness(ds):
    """Corpus-statistics document scoring — the LM-quality-filter pipeline
    SHAPE with an exact integer surrogate: pass 1 computes corpus-wide
    unigram counts through the exact top-K corpus counter
    (``_bounded_topk_vocab`` — bounded driver memory), which is
    broadcast via ``ray.put``; pass 2 scores each document by the sum
    and min of its tokens' corpus frequencies (a rare-token document has
    a low min_freq — the analogue of high LM surprisal). Integer counts
    on both sides; exact against the SQL oracle whenever distinct
    unigrams ≤ ``_VOCAB_TOP_K`` (true at every sf scale — the synthetic
    corpus has 31 distinct words); beyond the cap, tail tokens score 0,
    the capped-vocab LM convention."""
    import ray

    top = _bounded_topk_vocab(ds, str.split, ["w"], _VOCAB_TOP_K)
    vref = ray.put(dict(zip(top["w"], top["cnt"])))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        v = ray.get(vref)
        sums, mins = [], []
        for t in batch[TEXT].fillna(""):
            freqs = [v.get(w, 0) for w in t.split()]
            sums.append(sum(freqs))
            mins.append(min(freqs, default=0))
        return pd.DataFrame({DOC_ID: batch[DOC_ID],
                             "sum_freq": pd.Series(sums, dtype="int64"),
                             "min_freq": pd.Series(mins, dtype="int64")})

    return ds.map_batches(score, batch_format="pandas")


def bigram_commonness(ds):
    """Conditional (bigram) corpus-statistics scoring — the KenLM-style
    LM-filter shape one order up from ``unigram_commonness``: pass 1
    counts corpus-wide ADJACENT-BIGRAM (w1, w2) keys through the same
    exact top-K corpus counter (``_bounded_topk_vocab`` — driver memory
    O(top_k) regardless of corpus size, the web-scale fix for the bigram
    table that grows ~O(corpus tokens)); pass 2 scores each document by
    its bigram count, the sum of its bigrams' corpus frequencies, and
    how many of its bigrams are corpus-novel (count 1 — the
    exact-integer analogue of high conditional surprisal, and a
    boilerplate/template detector when near 0). Exact against the SQL
    oracle whenever distinct bigrams ≤ ``_VOCAB_TOP_K``; beyond the cap,
    evicted tail bigrams score 0 (and are NOT counted novel — novelty
    means corpus count exactly 1)."""
    import ray

    top = _bounded_topk_vocab(ds, _bigrams, ["w1", "w2"],
                              _VOCAB_TOP_K)
    cref = ray.put(dict(zip(zip(top["w1"], top["w2"]), top["cnt"])))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        v = ray.get(cref)
        n_bg, sums, novel = [], [], []
        for t in batch[TEXT].fillna(""):
            # .get: a top-K-capped broadcast table must score unseen
            # bigrams as frequency 0, not raise
            freqs = [v.get(p, 0) for p in _bigrams(t)]
            n_bg.append(len(freqs))
            sums.append(sum(freqs))
            novel.append(sum(1 for f in freqs if f == 1))
        return pd.DataFrame({DOC_ID: batch[DOC_ID],
                             "n_bigrams": pd.Series(n_bg, dtype="int64"),
                             "sum_bg_freq": pd.Series(sums, dtype="int64"),
                             "n_novel": pd.Series(novel, dtype="int64")})

    return ds.map_batches(score, batch_format="pandas")


SCORE_SCALE = 10**6


def tfidf_top_terms(ds, *, k: int = 3) -> "object":
    """Per-document TF-IDF top-k terms — the classic keyword/topic-label
    signal a training-data pipeline attaches before sampling or routing
    (Salton & Buckley, 1988). Returns a Dataset of
    (id, rank, term, score_fp): for each document, its ``k``
    highest-TF-IDF distinct terms ranked by (score desc, term asc).

    Exact fixed-point integer scoring (log-free rational idf surrogate,
    no libm on either side):

        score_fp(term) = (SCORE_SCALE · tf · (2N − 2df + 1))
                         // (dl · (2df + 1))

    where tf = term count in the doc, dl = doc token count, df = number
    of docs containing the term, N = number of docs with ≥1 token.
    (2N−2df+1)/(2df+1) is the monotone rational surrogate of the idf
    log; dividing by dl is the standard length normalization. Python-int
    exact on this side, HUGEINT-exact in ANSI SQL.

    Distributed shape: pass 1 counts df (each doc's distinct terms)
    through the SAME exact top-K corpus counter as the commonness
    scorers (``_bounded_topk_vocab`` — capped broadcast dict, driver RSS
    O(top_k) regardless of corpus size); N is a two-integer
    scalar aggregate. Pass 2 re-streams the corpus once, scoring each
    doc against the broadcast df table. Terms evicted past
    ``_VOCAB_TOP_K`` score with df = 0 (maximum idf — the rare-term
    convention); below the cap — every benchmark scale — results are
    EXACT. Tokenization matches the module's other scorers (whitespace
    split, case-preserving)."""
    from collections import Counter

    import ray

    top = _bounded_topk_vocab(ds, lambda t: set(t.split()), ["w"],
                              _VOCAB_TOP_K)

    def n_batch(batch: pd.DataFrame) -> pd.DataFrame:
        nn = int((batch[TEXT].fillna("").str.strip() != "").sum())
        return pd.DataFrame({"n": pd.Series([nn], dtype="int64")})

    n_docs = sum(
        int(b["n"].sum()) for b in
        ds.map_batches(n_batch, batch_format="pandas")
          .iter_batches(batch_format="pandas", batch_size=None))
    dref = ray.put(dict(zip(top["w"], top["cnt"])))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        v = ray.get(dref)
        ids: list = []
        ranks: list[int] = []
        terms: list[str] = []
        scores: list[int] = []
        for did, t in zip(batch[DOC_ID], batch[TEXT].fillna("")):
            toks = t.split()
            if not toks:
                continue
            dl = len(toks)
            scored = sorted(
                (-((SCORE_SCALE * tf * (2 * n_docs - 2 * v.get(w, 0) + 1))
                   // (dl * (2 * v.get(w, 0) + 1))), w)
                for w, tf in Counter(toks).items())
            for r, (neg, w) in enumerate(scored[:k], 1):
                ids.append(did)
                ranks.append(r)
                terms.append(w)
                scores.append(-neg)
        return pd.DataFrame({
            DOC_ID: pd.Series(ids, dtype="int64"),
            "rank": pd.Series(ranks, dtype="int64"),
            "term": pd.Series(terms, dtype="string"),
            "score_fp": pd.Series(scores, dtype="int64")})

    return ds.map_batches(score, batch_format="pandas")


_LANG_SETS = {k: frozenset(v) for k, v in LANG_PROFILES.items()}


def _classify_lang(text: str) -> str:
    """The profile with the most stop-word hits; ties go to the earlier
    profile, no hit (or no token) to 'und'."""
    toks = [t.lower() for t in text.split()]
    best_lang, best_score = "und", 0
    for lang, words in _LANG_SETS.items():
        score = sum(1 for t in toks if t in words)
        if score > best_score:
            best_lang, best_score = lang, score
    return best_lang


def lang_id(ds):
    """Stop-word-profile language ID per document: (doc_id, lang_pred)."""
    def classify(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[[DOC_ID]].copy()
        out["lang_pred"] = batch[TEXT].fillna("").apply(_classify_lang)
        return out

    return ds.map_batches(classify, batch_format="pandas")


# tokens per winnowing window of rolling_fingerprint
_FP_WINDOW = 5


def rolling_fingerprint(text: str) -> int:
    """Winnowing-style document fingerprint (Schleimer et al. 2003, public
    alg): hash per word token, sliding-window min selection, XOR-fold of
    the distinct window minima to one 63-bit value. Deterministic,
    whitespace-tokenized; token hash = md5 first-8-bytes big-endian so a
    SQL engine reproduces the fingerprint exactly (window min via a ROWS
    window frame + bit_xor of DISTINCT minima)."""
    toks = text.split()
    if not toks:
        return 0
    hs = [int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
          for t in toks]
    if len(hs) < _FP_WINDOW:
        acc = 0
        for h in hs:
            acc ^= h
        return acc & ((1 << 63) - 1)
    mins = []
    for i in range(len(hs) - _FP_WINDOW + 1):
        mins.append(min(hs[i : i + _FP_WINDOW]))
    acc = 0
    for m in set(mins):
        acc ^= m
    return acc & ((1 << 63) - 1)


def fingerprints(ds):
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        fps = batch[TEXT].fillna("").apply(rolling_fingerprint)
        return pd.DataFrame({DOC_ID: batch[DOC_ID],
                             "fingerprint": fps.astype("int64")})

    return ds.map_batches(f, batch_format="pandas")


# GPT-2-style pre-tokenizer pattern (Radford et al. 2019, public), adapted
# to stdlib `re` AND RE2 (no \p classes, no lookahead — GPT-2's
# `\s+(?!\S)` branch is dropped so DuckDB's regexp_extract_all counts the
# identical tokens): contractions, letter runs, digit runs, punctuation
# runs, whitespace runs.
_BPE_SPLIT_RE = re.compile(
    r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-zÀ-ÿĀ-￿]+| ?[0-9]+"
    r"| ?[^\sA-Za-zÀ-ÿĀ-￿0-9]+|\s+")


def bpe_ish_tokens(text: str) -> list[str]:
    """BPE-ish pre-tokenization (the split step of GPT-2's tokenizer —
    merges are model-specific and out of scope); deterministic, used for
    model-facing token accounting."""
    return _BPE_SPLIT_RE.findall(text)


def decontaminate(ds, benchmark_texts, n: int = 8):
    """Benchmark decontamination (standard pretraining-data step, e.g.
    GPT-3 appendix C / Dodge et al. 2021): flag documents sharing any
    word n-gram with a benchmark/eval set. The benchmark's n-gram set is
    built ONCE and broadcast via ``ray.put`` (small side — eval sets are
    tiny next to the corpus); every batch checks membership vectorized
    against the frozen set. Returns (id, n_overlap, contaminated)."""
    import ray

    bench: set[str] = set()
    for t in benchmark_texts:
        toks = (t or "").split()
        for i in range(max(0, len(toks) - n + 1)):
            bench.add(" ".join(toks[i : i + n]))
    bref = ray.put(frozenset(bench))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        bset = ray.get(bref)

        def overlap(t: str) -> int:
            toks = t.split()
            grams = {" ".join(toks[i : i + n])
                     for i in range(max(0, len(toks) - n + 1))}
            return len(grams & bset)

        counts = batch[TEXT].fillna("").apply(overlap).astype("int64")
        return pd.DataFrame({DOC_ID: batch[DOC_ID],
                             "n_overlap": counts,
                             "contaminated": (counts > 0)})

    return ds.map_batches(f, batch_format="pandas")


def token_count_bpe(ds):
    """(doc_id, n_bpe_tokens): BPE-ish pre-token counts per document."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        counts = batch[TEXT].fillna("").apply(lambda t: len(bpe_ish_tokens(t)))
        return pd.DataFrame({DOC_ID: batch[DOC_ID],
                             "n_bpe_tokens": counts.astype("int64")})

    return ds.map_batches(f, batch_format="pandas")


# PII patterns — RE2-compatible (no lookaround) so pyarrow's RE2 and
# DuckDB's RE2 apply them identically; replacement order is part of the
# contract (emails, then phones, then IPv4, each counted on the text as it
# stands when that pass runs).
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"(\+1[- ])?\d{3}-\d{3}-\d{4}"
PII_IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def pii_scrub(ds):
    """PII redaction (standard pretraining-data hygiene pass — e.g. the
    email/phone/IP scrubbing described for public corpora like The Pile /
    ROOTS): replaces emails, North-American phone numbers and IPv4
    addresses with typed sentinels and reports per-document match counts.

    Fully vectorized: three ``pc.count_substring_regex`` +
    ``pc.replace_substring_regex`` passes per batch (RE2, zero-copy Arrow
    in/out); the compiled regex programs live inside Arrow's kernel cache,
    so there is no per-row Python. Streams — output is (id, n_emails,
    n_phones, n_ips, text_scrubbed)."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch.column(TEXT), pa.string())
        t = pc.coalesce(t, "")
        n_email = pc.count_substring_regex(t, PII_EMAIL_RE)
        t = pc.replace_substring_regex(t, PII_EMAIL_RE, "<EMAIL>")
        n_phone = pc.count_substring_regex(t, PII_PHONE_RE)
        t = pc.replace_substring_regex(t, PII_PHONE_RE, "<PHONE>")
        n_ip = pc.count_substring_regex(t, PII_IPV4_RE)
        t = pc.replace_substring_regex(t, PII_IPV4_RE, "<IP>")
        return pa.table({
            DOC_ID: batch.column(DOC_ID),
            "n_emails": pc.cast(n_email, pa.int64()),
            "n_phones": pc.cast(n_phone, pa.int64()),
            "n_ips": pc.cast(n_ip, pa.int64()),
            "text_scrubbed": t,
        })

    return ds.map_batches(f, batch_format="pyarrow")


# exact whitespace class shared with the SQL oracle: RE2's \s is
# [\t\n\f\r ] (ASCII, no \v) while Python's \s is Unicode-wide — so both
# sides spell the class out
_WS_COLLAPSE_RE = re.compile(r"[\t\n\f\r ]+")


def normalize_unicode(text: str) -> str:
    """One document through the normalization chain: NFC → strip all
    Unicode marks (category M*, via NFD decomposition) → NFC recompose →
    casefold to lower → collapse ASCII whitespace runs → trim spaces.

    Matches DuckDB's ``trim(regexp_replace(lower(strip_accents(
    nfc_normalize(t))), '[\\t\\n\\f\\r ]+', ' ', 'g'), ' ')`` exactly
    (probed across Latin accents, arbitrary combining marks, Indic matras,
    Hangul, CJK): utf8proc's strip_accents removes category-M codepoints,
    not just nonzero-combining-class ones, and recomposes Hangul — hence
    unicodedata here rather than pyarrow's utf8_normalize, whose NFC does
    not recompose Hangul Jamo (utf8proc quirk)."""
    import unicodedata

    t = unicodedata.normalize("NFC", text)
    t = "".join(c for c in unicodedata.normalize("NFD", t)
                if not unicodedata.category(c).startswith("M"))
    t = unicodedata.normalize("NFC", t).lower()
    return _WS_COLLAPSE_RE.sub(" ", t).strip(" ")


def normalize_text(ds):
    """(id, text_norm): Unicode normalization pass (the standard corpus
    cleanup before tokenization/dedup). Per-row ``unicodedata`` — the
    vectorized Arrow chain is blocked by the Hangul-recomposition quirk
    documented on ``normalize_unicode``; the kernel is still C-speed per
    string and the stage streams like every other textstats op."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[TEXT].fillna("").apply(normalize_unicode)
        return pd.DataFrame({DOC_ID: batch[DOC_ID], "text_norm": out})

    return ds.map_batches(f, batch_format="pandas")


# rows per batch of exact_quantile_selection's three passes
_QUANTILE_BATCH = 65536


def exact_quantile_selection(ds, value_col: str, qs: "list[tuple]",
                             n_bins: int = 4096) -> pd.DataFrame:
    """Exact order statistics over an UNBOUNDED integer value domain via
    two-pass distributed selection:

    1. one streaming pass builds a coarse fixed-width histogram (min/max
       come from the same partials), locating for every requested quantile
       the bin that contains its order statistic and the rank offset
       within that bin — driver memory is O(n_bins), never O(distinct);
    2. a second filtered pass collects ONLY the values inside the needed
       bins (a tiny slice of the data for any reasonably spread
       distribution), sorts them, and reads the answer off at the offset.

    Quantile indices use an exact-fraction convention, no float multiply:
    idx = (q_num · (n−1)) // q_den. Returns (q_num, q_den,
    quantile_value)."""

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[value_col].to_numpy()
        return pd.DataFrame({"vmin": [int(v.min()) if len(v) else 0],
                             "vmax": [int(v.max()) if len(v) else 0],
                             "n": [len(v)]}).astype("int64")

    stats = ds.map_batches(hist_partial, batch_format="pandas",
                           batch_size=_QUANTILE_BATCH).to_pandas()
    stats = stats[stats["n"] > 0]
    if not len(stats):
        return pd.DataFrame({"q_num": pd.Series(dtype="int64"),
                             "q_den": pd.Series(dtype="int64"),
                             "quantile_value": pd.Series(dtype="int64")})
    lo, hi = int(stats["vmin"].min()), int(stats["vmax"].max())
    n = int(stats["n"].sum())
    width = max(1, (hi - lo) // n_bins + 1)

    def bin_partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[value_col].to_numpy()
        bins = (v - lo) // width
        cnt = np.bincount(bins, minlength=n_bins)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({"bin": pd.Series(nz, dtype="int64"),
                             "cnt": pd.Series(cnt[nz], dtype="int64")})

    parts = ds.map_batches(bin_partial, batch_format="pandas",
                           batch_size=_QUANTILE_BATCH).to_pandas()
    hist = parts.groupby("bin")["cnt"].sum().sort_index()
    cum = hist.cumsum()

    targets = []  # (q_num, q_den, bin, rank_within_bin)
    for q_num, q_den in qs:
        idx = (q_num * (n - 1)) // q_den
        pos = int(np.searchsorted(cum.to_numpy(), idx + 1))
        b = int(cum.index[pos])
        before = int(cum.iloc[pos - 1]) if pos else 0
        targets.append((q_num, q_den, b, idx - before))

    need_bins = sorted({t[2] for t in targets})

    def collect(b: pd.DataFrame) -> pd.DataFrame:
        v = b[value_col].to_numpy()
        bins = (v - lo) // width
        keep = np.isin(bins, need_bins)
        return pd.DataFrame({value_col: pd.Series(v[keep], dtype="int64"),
                             "bin": pd.Series(bins[keep], dtype="int64")})

    picked = ds.map_batches(collect, batch_format="pandas",
                            batch_size=_QUANTILE_BATCH).to_pandas()
    out = {"q_num": [], "q_den": [], "quantile_value": []}
    for q_num, q_den, b, off in targets:
        vals = np.sort(picked.loc[picked["bin"] == b, value_col].to_numpy())
        out["q_num"].append(q_num)
        out["q_den"].append(q_den)
        out["quantile_value"].append(int(vals[off]))
    return pd.DataFrame({k: pd.Series(v, dtype="int64")
                         for k, v in out.items()})


# the order statistic quality_gate keeps docs at or above: the 9/10 one
_GATE_Q = (9, 10)


def quality_gate(ds):
    """Corpus-percentile quality gate — the canonical LLM-data filter
    shape, composed from existing scale-safe pieces:

    1. per-doc integer score (whitespace token count, ``token_count``),
       materialized ONCE as a slim (id, n_tokens) projection so the
       later passes never re-tokenize;
    2. the exact q-th order statistic of the score across the corpus via
       the two-pass distributed-selection op
       (``exact_quantile_selection`` — driver memory O(n_bins),
       second pass reads only the target bins);
    3. the scalar threshold broadcast into a streaming filter.

    Returns (doc_id, n_tokens) of docs with score >= threshold, the
    score at ``_GATE_Q``. Exact SQL oracle: order statistic at
    idx = (q_num·(n−1))//q_den."""
    scored = token_count(ds).materialize()
    thr = int(exact_quantile_selection(
        scored, "n_tokens", qs=[_GATE_Q])["quantile_value"].iloc[0])

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["n_tokens"] >= thr]

    return scored.map_batches(keep, batch_format="pandas")


def vocab_stats(ds) -> pd.DataFrame:
    """Corpus vocabulary statistics: total whitespace tokens + EXACT
    distinct-token count, scale-safe — per-batch ``pd.unique`` shrinks
    each batch to its unique tokens before any shuffle, then
    ``agg.exchange`` keyed by token counts distinct per kernel call; the
    driver folds one row per call. No per-token Ray group,
    no driver-side token set (SURVEY.md §7.5 shuffle rules)."""
    from .agg import exchange

    def col_sum(d) -> int:
        return sum(int(b["n"].sum()) for b in d.iter_batches(
            batch_size=None, batch_format="pandas") if len(b))

    def totals(b: pd.DataFrame) -> pd.DataFrame:
        n = sum(len(t.split()) or 1 for t in b[TEXT].fillna(""))
        return pd.DataFrame({"n": pd.Series([n], dtype="int64")})

    n_tokens = col_sum(ds.map_batches(totals, batch_format="pandas"))

    def uniq_batch(b: pd.DataFrame) -> pd.DataFrame:
        toks = [t.split() or [""] for t in b[TEXT].fillna("")]
        if toks:
            u = pd.unique(np.concatenate(
                [np.asarray(x, dtype=object) for x in toks]))
        else:
            u = np.array([], dtype=object)
        return pd.DataFrame({"token": pd.Series(u, dtype=object)})

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": pd.Series([g["token"].nunique()],
                                            dtype="int64")})

    n_distinct = col_sum(exchange(
        [ds.map_batches(uniq_batch, batch_format="pandas")], ["token"],
        distinct))
    return pd.DataFrame({
        "n_tokens": pd.Series([n_tokens], dtype="int64"),
        "n_distinct_tokens": pd.Series([n_distinct], dtype="int64")})


def collocations(ds, k: int = 50) -> pd.DataFrame:
    """Corpus-wide top-k adjacent-bigram collocations (w1, w2, cnt),
    integer-exact: the corpus counter (``_bounded_topk_vocab``) over
    (w1, w2) keys with cap ``k``. Ties broken by (w1, w2) so the result
    is deterministic and matches the SQL oracle ORDER BY."""
    return _bounded_topk_vocab(ds, _bigrams, ["w1", "w2"], k)


def _pack(part: pd.DataFrame, max_tokens: int) -> pd.DataFrame:
    """The greedy first-fit packing fold: ``part``'s rows (shard,
    doc_id, n_tokens) in (shard, doc_id) order, each given its sequence
    ordinal within its shard (``seq_local``) and its token offset inside
    that sequence (``offset``). A doc that does not fit the running
    sequence's ``max_tokens`` budget opens the next one, so a doc longer
    than the budget sits alone in its own (overlong) sequence."""
    part = part.sort_values(["shard", DOC_ID],
                            kind="mergesort").reset_index(drop=True)
    seq = np.empty(len(part), dtype=np.int64)
    off = np.empty(len(part), dtype=np.int64)
    prev, cur, fill = None, 0, 0
    for i, (s, n) in enumerate(zip(part["shard"].tolist(),
                                   part["n_tokens"].tolist())):
        if s != prev:
            prev, cur, fill = s, 0, 0
        elif fill + n > max_tokens:
            cur, fill = cur + 1, 0
        seq[i], off[i] = cur, fill
        fill += n
    return part.assign(seq_local=seq, offset=off)


def pack_sequences(ds, max_tokens: int = 256, shard_size: int = 512):
    """Training-sequence packing — the step between a cleaned corpus and
    a token-budgeted training shard (every LLM data pipeline ends here):
    greedy first-fit of documents into sequences of ≤ ``max_tokens``
    whitespace tokens, packed WITHIN doc-id shards of ``shard_size``
    docs (the standard practice: packing is order-sequential, so it runs
    shard-local — deterministic, embarrassingly parallel, and a resumed
    run repacks identically).

    Output: (doc_id, shard, seq_local, offset, n_tokens) — seq_local is
    the sequence ordinal within the shard, offset the token position of
    the doc inside its sequence. A doc longer than the budget opens its
    own (overlong) sequence rather than being silently truncated —
    callers decide whether to split or drop. Empty docs count 1 token
    (the token_count convention, shared with the SQL oracle).

    Scale shape: shards hash-route through ``agg.exchange``; the
    per-shard greedy fold (``_pack``) is a trivial O(shard_size) loop
    over integers — no shuffle beyond the one exchange, no driver
    state."""
    from .agg import exchange

    def tok(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch[TEXT].fillna("").apply(lambda t: len(t.split()) or 1)
        return pd.DataFrame({
            DOC_ID: batch[DOC_ID].astype("int64"),
            "shard": (batch[DOC_ID].astype("int64") // shard_size),
            "n_tokens": n.astype("int64")})

    def pack(part: pd.DataFrame) -> pd.DataFrame:
        return _pack(part, max_tokens)[
            [DOC_ID, "shard", "seq_local", "offset", "n_tokens"]]

    tokens = ds.map_batches(tok, batch_format="pandas")
    return exchange([tokens], ["shard"], pack)


def commonness_buckets(ds):
    """CCNet-style corpus partitioning (Wenzek et al. 2020 §4.3 — public
    paper): score every document by LM-commonness (here the exact
    integer unigram surrogate, ``unigram_commonness``), take exact
    corpus terciles of the score, and label each doc head / middle /
    tail (head = most corpus-common — CCNet's lowest-perplexity bucket).
    The tercile thresholds are exact order statistics at
    idx = q·(n−1) // 3 via the two-pass distributed selection
    (``exact_quantile_selection`` — O(n_bins) driver memory);
    ties classify by VALUE against the thresholds (≤ t33 → tail,
    ≤ t66 → middle), so bucketing is deterministic and SQL-replayable.

    The score table (3 int64 columns per doc) is materialized once so
    the threshold pass and the labeling pass don't recompute scoring —
    at web scale it is O(docs) fixed-width rows in the object store,
    spillable."""
    scored = unigram_commonness(ds).materialize()
    qs = exact_quantile_selection(scored, "sum_freq", [(1, 3), (2, 3)])
    t = {(int(r.q_num), int(r.q_den)): int(r.quantile_value)
         for r in qs.itertuples()}
    t33, t66 = t[(1, 3)], t[(2, 3)]

    def label(b: pd.DataFrame) -> pd.DataFrame:
        v = b["sum_freq"].to_numpy()
        bucket = np.where(v <= t33, "tail",
                          np.where(v <= t66, "middle", "head"))
        return pd.DataFrame({DOC_ID: b[DOC_ID],
                             "sum_freq": b["sum_freq"],
                             "bucket": bucket})

    return scored.map_batches(label, batch_format="pandas")


def split_overlong(ds, max_tokens: int = 256):
    """Window overlong documents BEFORE packing: docs of more than
    ``max_tokens`` whitespace tokens split into consecutive
    ``max_tokens``-sized pieces (last piece short) — the companion to
    ``pack_sequences``'s own-sequence-for-overlong policy when the
    recipe prefers splitting to oversized sequences. Output one row per
    piece: (doc_id, piece_idx, n_tokens, piece) with token-boundary
    splits, exactly replayable in SQL via list_slice windows."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        ids, pidx, ntok, piece = [], [], [], []
        for i, t in zip(batch[DOC_ID], batch[TEXT].fillna("")):
            ws = t.split()
            if not ws:
                ids.append(i); pidx.append(0); ntok.append(0)
                piece.append("")
                continue
            for k in range(0, len(ws), max_tokens):
                chunk = ws[k:k + max_tokens]
                ids.append(i)
                pidx.append(k // max_tokens)
                ntok.append(len(chunk))
                piece.append(" ".join(chunk))
        return pd.DataFrame({
            DOC_ID: pd.Series(ids, dtype="int64"),
            "piece_idx": pd.Series(pidx, dtype="int64"),
            "n_tokens": pd.Series(ntok, dtype="int64"),
            "piece": piece})

    return ds.map_batches(f, batch_format="pandas")


# n-gram length (whitespace tokens) of dup_ngram_stats
_DUP_NGRAM = 5


def dup_ngram_stats(ds):
    """Cross-document duplicated-n-gram fraction per doc — the RefinedWeb
    / MassiveText corpus-quality metric (Penedo et al. 2023 §"duplicated
    n-grams"; Rae et al. 2021 appendix A): for each document, the
    fraction of its n-gram OCCURRENCES (n = ``_DUP_NGRAM`` whitespace
    tokens) whose n-gram appears in ≥ 2 distinct documents corpus-wide.
    Unlike repetition_stats (intra-doc), this measures corpus-level boilerplate — high values flag template
    farms that survive exact/near dedup.

    Distributed shape (two ``agg.exchange`` calls, never per-key Ray
    groups; grams ride as STRINGS so the answer is hash-free exact):
      1. one map pass → (gram, doc_id, mult) rows, mult = occurrences of
         that gram in that doc (one row per distinct (gram, doc)), plus a
         tiny (doc_id, n_ngrams) denominator table;
      2. exchange by gram → document frequency per gram IS the group
         size; per-doc partial numerators = Σ mult over df≥2 grams;
      3. exchange the partials and the denominators by doc_id → fold.

    Returns (doc_id, n_dup_ngrams, n_ngrams, dup_ngram_frac) for EVERY
    input doc (docs shorter than n grams report 0/0/0.0)."""
    from .agg import exchange

    def occurrences(batch: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        grams: list[str] = []
        ids: list[int] = []
        mults: list[int] = []
        for did, text in zip(batch[DOC_ID], batch[TEXT]):
            toks = (text or "").split()
            if len(toks) < _DUP_NGRAM:
                continue
            c = Counter(" ".join(toks[i:i + _DUP_NGRAM])
                        for i in range(len(toks) - _DUP_NGRAM + 1))
            for g, m in c.items():
                grams.append(g)
                ids.append(int(did))
                mults.append(m)
        return pd.DataFrame({
            "gram": pd.Series(grams, dtype="string"),
            DOC_ID: pd.Series(ids, dtype="int64"),
            "mult": pd.Series(mults, dtype="int64")})

    def denominators(batch: pd.DataFrame) -> pd.DataFrame:
        n = [max(len((t or "").split()) - _DUP_NGRAM + 1, 0)
             for t in batch[TEXT]]
        return pd.DataFrame({
            DOC_ID: batch[DOC_ID].astype("int64"),
            "n_ngrams": pd.Series(n, dtype="int64")})

    def per_gram(part: pd.DataFrame) -> pd.DataFrame:
        # rows are unique per (gram, doc) → df(gram) is the group size
        df = part.groupby("gram")[DOC_ID].transform("size")
        return (part[df >= 2].groupby(DOC_ID, as_index=False)["mult"].sum()
                .astype("int64").rename(columns={"mult": "n_dup"}))

    def fold(part: pd.DataFrame, dens: pd.DataFrame) -> pd.DataFrame:
        num = part.groupby(DOC_ID)["n_dup"].sum()
        g = dens.groupby(DOC_ID, as_index=False)["n_ngrams"].sum()
        g.insert(1, "n_dup_ngrams",
                 g[DOC_ID].map(num).fillna(0).astype("int64"))
        denom = g["n_ngrams"].to_numpy()
        num = g["n_dup_ngrams"].to_numpy()
        frac = np.where(denom > 0, num / np.maximum(denom, 1), 0.0)
        g["dup_ngram_frac"] = frac
        return g

    occ = ds.map_batches(occurrences, batch_format="pandas")
    partials = exchange([occ], ["gram"], per_gram)
    dens = ds.map_batches(denominators, batch_format="pandas")
    return exchange([partials, dens], [DOC_ID, DOC_ID], fold)


def top_tokens_per_lang(ds, k: int = 5) -> pd.DataFrame:
    """Per-language top-k tokens by corpus frequency over a Dataset with
    ``lang`` and ``text`` columns (ties break to the lexicographically
    smaller token; a blank doc counts one empty token) — the grouped
    heavy-vocabulary report (per-language stopword audit, tokenizer
    sanity check). Returns (lang, tok, n, rnk).

    Exact WITHOUT materializing any language's vocabulary in one place:
    the corpus counter (``_bounded_topk_vocab``) keyed by (lang, tok)
    with the top-k kept per language — each token's total lands
    complete inside one exchange call, so a token outside every call's
    per-language top-k cannot be in the global top-k."""
    top = _bounded_topk_vocab(ds, lambda t: t.split() or [""],
                              ["tok"], k, group=LANG)
    top = top.rename(columns={"cnt": "n"})
    top["rnk"] = (top.groupby(LANG, sort=False).cumcount() + 1
                  ).astype("int64")
    return top[[LANG, "tok", "n", "rnk"]]
