"""Property tests (hypothesis) + determinism guarantees."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from raycrawl.html.markdown import post_process_markdown
from raycrawl.urlnorm import canonicalize, host_shard, url_key

_url_path = st.text(alphabet=string.ascii_letters + string.digits + "/-_.~%",
                    max_size=40)
_host = st.from_regex(r"[a-z][a-z0-9]{0,10}(\.[a-z]{2,5}){1,2}", fullmatch=True)


@given(_host, _url_path)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(host, path):
    url = f"https://{host}/{path}"
    once = canonicalize(url)
    assert canonicalize(once) == once


@given(_host, _url_path, st.text(max_size=10))
@settings(max_examples=100, deadline=None)
def test_url_key_ignores_fragment_and_query(host, path, frag):
    base = f"https://{host}/{path}"
    assert url_key(base) == url_key(base + "#x") == url_key(base + "?q=1")
    assert len(url_key(base)) == 20


@given(_host)
@settings(max_examples=100, deadline=None)
def test_host_shard_in_range(host):
    for s in (1, 4, 7, 64):
        assert 0 <= host_shard(host, s) < s


@given(st.text(alphabet=string.printable, max_size=400))
@settings(max_examples=100, deadline=None)
def test_post_process_converges(text):
    """The reference chain must converge within two applications."""
    once = post_process_markdown(text)
    twice = post_process_markdown(once)
    assert post_process_markdown(twice) == twice


@given(st.text(alphabet=string.printable, max_size=300))
@settings(max_examples=60, deadline=None)
def test_post_process_bounded(text):
    out = post_process_markdown(text)
    assert "\n\n\n" not in out
    assert not out.endswith("\n")


def _unguarded_post_process(markdown: str) -> str:
    """The post-process chain of reference scraper.py:543-662 as a plain
    sequence: every regex pass runs, the trailing-space strip included."""
    import re

    markdown = re.sub(r"<!--.*?-->", "", markdown, flags=re.DOTALL)
    markdown = markdown.replace("&nbsp;", " ").replace("\xa0", " ")
    markdown = re.sub(r"(#{1,6})([^#\s])", r"\1 \2", markdown)
    markdown = re.sub(r"(\n\s*)-([^\s])", r"\1- \2", markdown)
    markdown = re.sub(r"[ \t]+$", "", markdown, flags=re.MULTILINE)
    processed: list = []
    in_code_block = in_list = False
    for line in markdown.split("\n"):
        line = line.rstrip()
        if line.startswith("```"):
            in_code_block = not in_code_block
            processed.append(line)
            continue
        if in_code_block:
            processed.append(line)
            continue
        if not line.strip():
            if processed and processed[-1].strip():
                processed.append("")
            continue
        if line.startswith("#"):
            if processed and processed[-1].strip():
                processed.append("")
            processed += [line, ""]
            in_list = False
            continue
        if (line.strip().startswith(("-", "*", "+"))
                or re.match(r"^\s*\d+\.", line)):
            if not in_list and processed and processed[-1].strip():
                processed.append("")
            processed.append(line)
            in_list = True
            continue
        in_list = False
        if line.strip().startswith("!["):
            if processed and processed[-1].strip():
                processed.append("")
            processed += [line, ""]
            continue
        processed.append(line)
    markdown = "\n".join(processed)

    def newlines(s):
        return re.sub(r"\n{3,}", "\n\n", s)

    def lonely_punct(s):
        return re.sub(r"^\s*[\*\.\-]\s*$", "", s, flags=re.MULTILINE)

    markdown = newlines(lonely_punct(newlines(markdown)))
    markdown = re.sub(r"\*\*Copy\n\[code\]", "Copy\n\n```", markdown)
    markdown = re.sub(r"\[/code\]", "```", markdown)
    markdown = re.sub(r"\[code\]", "```", markdown)
    markdown = re.sub(r"\[/code\]", "```", markdown)
    markdown = newlines(lonely_punct(markdown))
    markdown = re.sub(r"(\n*)(```[\w]*\n.*?\n```)(\n*)", r"\n\n\2\n\n",
                      markdown, flags=re.DOTALL)
    markdown = re.sub(r"(\n*)(!\[.*?\]\(.*?\))(\n*)", r"\n\n\2\n\n",
                      markdown)
    markdown = newlines(markdown)
    markdown = re.sub(r"^\s*\*\s*$", "", markdown, flags=re.MULTILINE)
    return newlines(markdown).strip()


# fragments that trigger (or just miss) every pass of the chain
_MD_FRAGMENTS = ["\n", "\n\n\n", "\r", "\r\n", " ", "\t", "\xa0", "&nbsp;",
                 "*", "**", "-", "+", ".", "1.", "#", "## ", "![", "](",
                 ")", "]", "![a](b)", "![](u)", "```", "```py\n", "[code]",
                 "[/code]", "**Copy\n[code]", "<!--", "-->", "<!-- c -->",
                 "a", "word", "x y"]


@given(st.one_of(
    st.lists(st.sampled_from(_MD_FRAGMENTS), max_size=80).map("".join),
    st.text(alphabet="\n*-#![]()`<>/code\xa0\r \t.1+a", max_size=300)))
@settings(max_examples=600, deadline=None)
def test_post_process_matches_unguarded_chain(text):
    """Skipping regex passes that cannot match, and leaving the trailing
    space strip to the per-line rstrip, changes no output."""
    assert post_process_markdown(text) == _unguarded_post_process(text)


def test_feature_corpus_deterministic():
    from raycrawl.fixtures import feature_corpus

    a = feature_corpus(3, 16, size_factor=3)
    b = feature_corpus(3, 16, size_factor=3)
    assert a.equals(b)


def test_pages_from_documents_deterministic():
    from raycrawl.fixtures import pages_from_documents

    a = pages_from_documents("/root/testdata/sf0.001")
    b = pages_from_documents("/root/testdata/sf0.001")
    assert a.equals(b)


def test_extraction_deterministic_across_calls():
    from raycrawl.extract import extract_page
    from raycrawl.fixtures import feature_corpus

    t = feature_corpus(2, 8)
    for url, html in zip(t.column("url").to_pylist()[:10],
                         t.column("html").to_pylist()[:10]):
        r1 = extract_page(url, html.decode())
        r2 = extract_page(url, html.decode())
        assert r1["markdown"] == r2["markdown"]
        assert r1["links"] == r2["links"]


@given(st.text(max_size=400))
@settings(max_examples=150, deadline=None)
def test_normalize_unicode_idempotent(text):
    from raycrawl.ops.textstats import normalize_unicode

    once = normalize_unicode(text)
    assert normalize_unicode(once) == once
    # output contains no collapsible whitespace runs and no edge spaces
    assert "  " not in once and "\t" not in once and "\n" not in once
    assert once == once.strip(" ")


@given(st.text(alphabet=string.printable, max_size=400))
@settings(max_examples=100, deadline=None)
def test_pii_scrub_single_doc_idempotent(text):
    import re as _re

    from raycrawl.ops.textstats import (PII_EMAIL_RE, PII_IPV4_RE,
                                        PII_PHONE_RE)

    t = _re.sub(PII_EMAIL_RE, "<EMAIL>", text)
    t = _re.sub(PII_PHONE_RE, "<PHONE>", t)
    t = _re.sub(PII_IPV4_RE, "<IP>", t)
    # a scrubbed text has no remaining matches for any pattern
    assert not _re.search(PII_EMAIL_RE, t)
    assert not _re.search(PII_PHONE_RE, t)
    assert not _re.search(PII_IPV4_RE, t)


@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=0,
                         max_size=20).map(" ".join),
                min_size=1, max_size=12),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_dup_spans_reference_bounds(texts, L):
    """Single-threaded reference of dup_spans' semantics + invariants."""
    import hashlib as _hl

    from collections import Counter

    def grams(toks):
        return [int.from_bytes(
            _hl.md5("\x01".join(toks[s : s + L]).encode()).digest()[:8],
            "big") for s in range(len(toks) - L + 1)]

    tok_lists = [t.split() for t in texts]
    counts = Counter(h for toks in tok_lists for h in grams(toks))
    for toks in tok_lists:
        starts = [s for s, h in enumerate(grams(toks)) if counts[h] >= 2]
        cov = set()
        for s in starts:
            cov.update(range(s, s + L))
        n_cov = len(cov)
        # the merged-interval formula the operator uses
        if starts:
            fast = L + sum(min(b - a, L)
                           for a, b in zip(starts, starts[1:]))
        else:
            fast = 0
        assert fast == n_cov
        assert n_cov <= len(toks)
        assert (n_cov == 0) == (not starts)


@given(st.lists(st.tuples(_host, st.binary(max_size=200)),
                min_size=1, max_size=8, unique_by=lambda t: t[0]),
       st.integers(min_value=0, max_value=10**15))
@settings(max_examples=60, deadline=None)
def test_warc_record_roundtrip_arbitrary_payloads(pages, ts_us):
    """Any binary payload survives the WARC record framing byte-exactly,
    and parse order == write order."""
    from raycrawl import warc as W

    raw = b"".join(
        W.build_response_record(f"https://{h}/p.html", ts_us, body)
        for h, body in pages)
    got = list(W.parse_warc_records(raw))
    assert [(u, t) for u, t, _ in got] == [
        (f"https://{h}/p.html", (ts_us // 1_000_000) * 1_000_000)
        for h, _ in pages]
    assert [bytes(b) for _, _, b in got] == [body for _, body in pages]


def test_pagerank_reference_mass_conservation():
    """Floor division only LEAKS mass: scale*(1-eps) < sum(r) <= scale,
    and the recurrence is deterministic across runs (pure ints)."""
    import numpy as np
    import pandas as pd

    from tests.test_graph import _random_graph, reference_pagerank

    for seed in (1, 2, 3):
        edges, nodes = _random_graph(n=100, m=300, seed=seed)
        r1 = reference_pagerank(edges, nodes, num_iters=4)
        r2 = reference_pagerank(edges, nodes, num_iters=4)
        pd.testing.assert_frame_equal(r1, r2)
        total = int(r1["rank_fp"].sum())
        # each of the 4 iterations floors at most 1 unit per node per
        # division site (share, dang//n, final //100 → ≤3n per iter)
        assert 10**12 - 12 * 100 * 100 < total <= 10**12


@given(st.integers(min_value=0, max_value=10**6), st.data())
@settings(max_examples=100, deadline=None)
def test_weighted_sample_threshold_monotone_in_weight(key, data):
    """For a fixed key, inclusion is monotone in weight (the integer
    cross-multiplied threshold has no float cliffs), and weight_scale
    keeps everything; 0 keeps nothing."""
    import hashlib

    scale = 50
    h = int(hashlib.md5(f"w0{key}".encode()).hexdigest()[:15], 16)

    def keep(w):
        return h * scale < w * (1 << 60)

    assert keep(scale)  # p = 1
    assert not keep(0)  # p = 0
    w = data.draw(st.integers(min_value=1, max_value=scale - 1))
    if keep(w):
        assert keep(w + 1)
    else:
        assert not keep(w - 1)


_WHITESPACE = "".join(c for c in map(chr, range(0x110000)) if c.isspace())


@given(st.text(alphabet=st.sampled_from(_WHITESPACE + "abZ\x01é"),
               max_size=80))
@settings(max_examples=300, deadline=None)
def test_str_split_equals_whitespace_regex_split(text):
    """The text ops split words with ``str.split()``: on any mix of every
    ``isspace`` character and letters it equals the regex form
    ``re.split(r"\\s+", t.strip()) if t.strip() else []``."""
    import re

    t = text.strip()
    assert text.split() == (re.split(r"\s+", t) if t else [])

