"""The per-page extraction kernel against a frozen copy of its multi-walk
form.

The reference below is the kernel as it stood before the walks were fused:
the regex tokenizer, ``clean_tree`` as four passes of
``find_all``/``iter``/``decompose``, ``find_main_content`` as five ``find``
calls plus a ``get_text`` per fallback container, a deep copy of the main
subtree, image enhancement and ``<body>`` lookup as two more walks, and
each link list normalized on its own. ``extract_page`` must give the same
output on any page, and ``PageExtractor`` the same table on the benchmark's
corpus shapes.
"""

from __future__ import annotations

import gc
import re
from html import unescape

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raycrawl.extract
from raycrawl.extract import PageExtractor, extract_page, page_row
from raycrawl.fixtures import feature_corpus
from raycrawl.html import markdown
from raycrawl.html.clean import find_main_content
from raycrawl.html.dom import COMMENT, TEXT, VOID_TAGS, Node, _fast_parse
from raycrawl.html.markdown import post_process_markdown
from raycrawl.html.metadata import (PageIndex, extract_metadata,
                                    extract_structured)
from raycrawl.pipeline import WaveExtractor
from raycrawl.schema import PAGES
from raycrawl.urlnorm import normalize_url

# ---------------------------------------------------------------------------
# frozen reference: the tokenizer
# ---------------------------------------------------------------------------

_REF_IMPLICIT_CLOSE = {
    "li": {"li"},
    "p": {"p", "div", "section", "article", "ul", "ol", "table", "blockquote",
          "pre", "h1", "h2", "h3", "h4", "h5", "h6", "main", "aside", "nav",
          "header", "footer"},
    "td": {"td", "th", "tr"},
    "th": {"td", "th", "tr"},
    "tr": {"tr"},
    "option": {"option"},
}
_REF_TOKEN_RE = re.compile(
    r"<(?:"
    r"!--(?P<comment>.*?)--\s*>"
    r"|(?P<decl>![^>]*)>"
    r"|\?(?P<pi>[^>]*)>"
    r"|/(?P<end>[a-zA-Z][^\s>]*)\s*>"
    r"|(?P<start>[a-zA-Z][^\s/>]*)(?P<attrs>(?:\"[^\"]*\"|'[^']*'|[^>])*?)(?P<selfclose>/?)>"
    r")",
    re.DOTALL,
)
_REF_ATTR_RE = re.compile(
    r"([^\s=/>]+)(?:\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]*)))?"
)
_REF_RAWTEXT = frozenset({"script", "style"})
_REF_RAWTEXT_CLOSE = {t: re.compile(rf"</{t}\s*>", re.IGNORECASE)
                      for t in _REF_RAWTEXT}


def _ref_fast_parse(html: str) -> Node:
    root = Node("#document")
    stack = [root]
    pos = 0
    n = len(html)
    while pos < n:
        m = _REF_TOKEN_RE.search(html, pos)
        if m is None:
            text = html[pos:]
            if text:
                stack[-1].append(
                    Node(TEXT, text=unescape(text) if "&" in text else text))
            break
        if m.start() > pos:
            text = html[pos : m.start()]
            stack[-1].append(
                Node(TEXT, text=unescape(text) if "&" in text else text))
        pos = m.end()
        if m.group("comment") is not None:
            stack[-1].append(Node(COMMENT, text=m.group("comment")))
            continue
        if m.group("decl") is not None or m.group("pi") is not None:
            continue
        end = m.group("end")
        if end is not None:
            tag = end.lower()
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    break
            continue
        tag = m.group("start").lower()
        attrs_s = m.group("attrs") or ""
        attrs: list[tuple[str, str]] = []
        if attrs_s.strip():
            for am in _REF_ATTR_RE.finditer(attrs_s):
                val = am.group(2)
                if val is None:
                    val = am.group(3)
                if val is None:
                    val = am.group(4)
                if val is None:
                    val = ""
                attrs.append((am.group(1).lower(),
                              unescape(val) if "&" in val else val))
        while len(stack) > 1:
            open_tag = stack[-1].tag
            if (open_tag in _REF_IMPLICIT_CLOSE
                    and tag in _REF_IMPLICIT_CLOSE[open_tag]):
                stack.pop()
            else:
                break
        node = Node(tag, None)
        node.attrs = attrs
        stack[-1].append(node)
        if m.group("selfclose") == "/" or tag in VOID_TAGS:
            continue
        if tag in _REF_RAWTEXT:
            cm = _REF_RAWTEXT_CLOSE[tag].search(html, pos)
            raw_end = cm.start() if cm else n
            raw = html[pos:raw_end]
            if raw:
                node.append(Node(TEXT, text=raw))
            pos = cm.end() if cm else n
            continue
        stack.append(node)
    return root


# ---------------------------------------------------------------------------
# frozen reference: main content, copy, clean, markdown prologue, links
# ---------------------------------------------------------------------------

_REF_CONTENT_RE = re.compile(r"content|main|article", re.I)
_REF_ALLOWED_ATTRS = frozenset(
    {"href", "src", "alt", "title", "class", "id", "role", "type", "rel",
     "target"})


def _ref_find_main_content(root: Node):
    hit = root.find("main")
    if hit is None:
        hit = root.find("article")
    if hit is None:
        hit = root.find("div", id=lambda v: v is not None
                        and _REF_CONTENT_RE.search(v))
    if hit is None:
        hit = root.find("div", **{"class": lambda v: v is not None
                                  and _REF_CONTENT_RE.search(v)})
    if hit is None:
        hit = root.find("div", role="main")
    if hit is not None:
        return hit
    containers = root.find_all(("div", "section"))
    if containers:
        return max(containers, key=lambda n: len(n.get_text()))
    return None


def _ref_copy(node: Node) -> Node:
    n = Node.__new__(Node)
    n.tag = node.tag
    n.attrs = list(node.attrs)
    n.text = node.text
    n.children = []
    for c in node.children:
        n.children.append(_ref_copy(c))
    return n


def _ref_parents(root: Node) -> dict[int, Node]:
    """id(node) → its parent, for every node under ``root``."""
    parents = {}
    for node in root.iter():
        for c in node.children:
            parents[id(c)] = node
    return parents


def _ref_decompose(node: Node, parents: dict[int, Node]) -> None:
    """The frozen kernel's ``decompose``: detach ``node`` (and its
    subtree) from its parent, found in ``parents`` since nodes hold no
    parent link."""
    parent = parents.pop(id(node), None)
    if parent is not None:
        parent.children = [c for c in parent.children if c is not node]


def _ref_clean_tree(root: Node) -> Node:
    parents = _ref_parents(root)
    for node in root.find_all(("script", "style", "iframe", "noscript")):
        _ref_decompose(node, parents)
    for node in list(root.iter()):
        if node.tag == COMMENT:
            _ref_decompose(node, parents)
    for node in root.find_all(("nav", "footer", "header")):
        if node.find(("main", "article", "section")) is None:
            _ref_decompose(node, parents)
    for node in root.iter_elements():
        if node.attrs:
            node.attrs = [
                (k, v) for k, v in node.attrs
                if k in _REF_ALLOWED_ATTRS or k.startswith("data-")
                or k.startswith("aria-")]
    return root


def _ref_to_markdown_tree(root: Node) -> str:
    for img in root.find_all("img"):
        if not img.get("alt"):
            img.set("alt", "Image")
        src = img.get("src") or ""
        if src and not img.get("title"):
            img.set("title", src.split("/")[-1].split("?")[0])
    body = root.find("body") or root
    r = markdown._Renderer()
    r.children_as_blocks(body)
    return "\n\n".join(b for b in r.blocks if b) + "\n"


def _ref_links(anchors: list[Node], base_url: str) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for a in anchors:
        href = a.get("href")
        if href is None:
            continue
        normalized = normalize_url(href, base_url)
        if not normalized or normalized in seen:
            continue
        seen.add(normalized)
        out.append(normalized)
    return out


def _ref_extract_page(url: str, html: str, only_main: bool = True) -> dict:
    root = _ref_fast_parse(html)
    idx = PageIndex(root)
    metadata = extract_metadata(idx)
    structured = extract_structured(idx)
    links = _ref_links(idx.anchors, url)
    content_root = root
    if only_main:
        main = _ref_find_main_content(root)
        if main is not None:
            content_root = _ref_copy(main)
    _ref_clean_tree(content_root)
    html_clean = content_root.to_html()
    md = post_process_markdown(_ref_to_markdown_tree(content_root))
    return {
        "markdown": md, "html_clean": html_clean, "metadata": metadata,
        "structured": structured, "links": links,
        "crawl_links": _ref_links(content_root.find_all("a", href=True), url),
    }


# ---------------------------------------------------------------------------
# tag soup
# ---------------------------------------------------------------------------

_HREFS = ["/a", "a/b", "../up", "#frag", "/a#frag", "?q=1", "/a?x=1#f",
          "https://h.example/x", "https://h.example/x#y",
          "https://other.example/y", "//h.example/p", "", " /sp ",
          "javascript:void(0)", "mailto:x@h.example", "http://[bad"]
_TEXTS = ["", " ", "  ", "\t", "\r\n", "\f", "\n\n", "a  b", "x\ty",
          "c\rd", "e\ff", "Hello world", " lead", "trail ", "&amp; &lt;b&gt;",
          "café  nbsp", "5 < 6", "*", "-"]
_ATTRS = [("id", "content"), ("id", "main-x"), ("id", "side"),
          ("class", "main-body"), ("class", "nav"), ("class", "Article"),
          ("role", "main"), ("style", "color:red"), ("onclick", "go()"),
          ("data-k", "v"), ("aria-label", "l"), ("title", "t"),
          ("lang", "en"), ("src", "/i.png?x=1")]
_TAGS = ["div", "div", "section", "article", "main", "nav", "header",
         "footer", "aside", "p", "span", "a", "ul", "li", "ol", "table",
         "tr", "td", "th", "h2", "pre", "code", "em", "strong", "blockquote",
         "noscript", "iframe", "dl", "dt", "dd", "body"]
_LEAVES = [
    "<!-- a comment -->", "<!-- <main>in a comment</main> -->",
    "<script>var s = '<main>x</main>';</script>",
    "<style>main { color: red }</style>",
    "<noscript><main>no</main><article>js</article><section>s</section>"
    "</noscript>",
    "<br>", "<hr>", "<img src='/p/pic.png?v=2'>", "<img alt='' src=''>",
    "<img src=a.jpg title=T alt=A>",
    "<nav><header><a href='/n'>n</a></header></nav>",
    "<header><nav><footer>f</footer></nav></header>",
    "<footer><noscript><section>s</section></noscript></footer>",
    "<nav><script><article>a</article></script></nav>",
    "<nav><!-- <section>c</section> --></nav>",
]


def _attr_s(pairs: list[tuple[str, str]]) -> str:
    return "".join(f' {k}="{v}"' for k, v in pairs)


_text = st.sampled_from(_TEXTS)
_anchor = st.builds(
    lambda href, text, extra: f'<a href="{href}"{_attr_s(extra)}>{text}</a>',
    st.sampled_from(_HREFS), _text,
    st.lists(st.sampled_from(_ATTRS), max_size=2))
_leaf = st.one_of(_text, _anchor, st.sampled_from(_LEAVES))


def _element(tag: str, attrs: list, kids: list[str], close: bool) -> str:
    body = "".join(kids)
    return f"<{tag}{_attr_s(attrs)}>{body}" + (f"</{tag}>" if close else "")


_soup = st.recursive(
    _leaf,
    lambda kids: st.builds(
        _element, st.sampled_from(_TAGS),
        st.lists(st.sampled_from(_ATTRS), max_size=3),
        st.lists(kids, max_size=4), st.booleans()),
    max_leaves=40)
_root_open = st.sampled_from([
    "", "<main style='margin:0' onclick='go()' data-x=1 aria-hidden=true>",
    "<article onclick=x class=post>", "<div id=content style=s>",
    "<div class='main-column' onload=y>", "<div role=main tabindex=0>",
    "<section style=x>"])


@st.composite
def _pages(draw) -> str:
    root = draw(_root_open)
    close = f"</{root[1:].split()[0].rstrip('>')}>" if root else ""
    parts = draw(st.lists(_soup, max_size=5))
    head = draw(st.sampled_from([
        "", "<head><title> T  t </title><meta name=description "
        "content=d></head>",
        "<head><link rel=canonical href='/c#x'></head>"]))
    return (f"<!DOCTYPE html><html lang=en>{head}<body>"
            f"{root}{''.join(parts)}{close}{draw(_soup)}</body></html>")


_URL = "https://h.example/dir/page.html"


@given(_pages(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_extract_page_matches_frozen_kernel(html, only_main):
    assert (extract_page(_URL, html, only_main=only_main)
            == _ref_extract_page(_URL, html, only_main=only_main))


@pytest.mark.parametrize("html", [
    # the content root's own attributes are filtered too
    "<body><main style='color:red' onclick='go()' id=m data-x=1>"
    "<p>t</p></main></body>",
    # chrome nested in chrome, content tags only inside dropped subtrees
    "<body><div id=content><nav><header><footer>f</footer></header></nav>"
    "<header><noscript><main>m</main></noscript></header>"
    "<footer><!-- <article>a</article> --></footer>"
    "<nav><header><section>s</section></header></nav>"
    "<header><script><section>x</section></script>h</header></div></body>",
    # duplicate, relative, fragment and absolute hrefs in and out of main
    "<body><a href='/x'>1</a><a href='#top'>2</a><main><a href='/x#y'>3</a>"
    "<a href='x'>4</a><a href='https://h.example/x'>5</a><a href=''>6</a>"
    "<a href='https://o.example/'>7</a></main><a href='/x'>8</a></body>",
    # whitespace-only runs, tabs, CR, FF and double spaces
    "<body><main> <p>a  b\tc\r\nd\fe</p>\n\t<p> </p>\f<span>x  </span>"
    "<em>  y</em>\r<p>one two</p></main></body>",
    # the largest-text fallback, ties broken by the first container
    "<body><div>ab</div><section>cd</section><div><div>abc</div></div>"
    "</body>",
])
@pytest.mark.parametrize("only_main", [True, False])
def test_extract_page_matches_frozen_kernel_on_edge_pages(html, only_main):
    assert (extract_page(_URL, html, only_main=only_main)
            == _ref_extract_page(_URL, html, only_main=only_main))


@pytest.mark.parametrize("corpus", [
    dict(n_hosts=8, with_private=False, size_factor=25),
    dict(n_hosts=16, with_private=True, size_factor=1),
], ids=["bulk_shaped", "polite_skew_shaped"])
def test_page_extractor_matches_frozen_kernel_on_corpora(corpus, monkeypatch):
    pages = feature_corpus(**corpus).select(["url", "warc_ts", "html"])
    got = PageExtractor()(pages)
    monkeypatch.setattr(raycrawl.extract, "extract_page", _ref_extract_page)
    want = PageExtractor()(pages)
    assert got.num_rows == pages.num_rows
    assert got.equals(want)


# ---------------------------------------------------------------------------
# tokenizer differential
# ---------------------------------------------------------------------------

_TOKENS = [
    "<p>", "</p>", "<li>", "</li>", "<ul>", "</ul>", "<ol>", "<td>", "<th>",
    "<tr>", "</tr>", "<table>", "</table>", "<div>", "</div>", "<b>", "</b>",
    "<i>", "</i>", "</span>", "<span class=x>", "<option>", "<h2>", "<main>",
    "<a href='/a?x=1&amp;y=2'>", "<a href=\"&lt;q&gt;\" title='&quot;'>",
    "<img src=x alt=&eacute;>", "<br/>", "<input disabled>", "<P CLASS=Up>",
    "</P >", "<div\ndata-a = 'v'\tid=\"q\" >", "<x-custom a=b/>",
    "<script>if (a < b && c > d) { x = '</p>'; }</script>",
    "<style>p > a { }</style>", "<SCRIPT type=text/javascript>1</ScRiPt >",
    "<script>never closed", "<style>",
    "<!-- c -->", "<!-- a -- b -->", "<!---->", "<!DOCTYPE html>", "<?pi x?>",
    "a < b", "<", "< p>", "<3", "a&amp;b", "&lt;tag&gt;", "&#169;", "&#x41;",
    "&nbsp;", "&bogus;", "&amp", "café", " ", "\n", "\t", "text",
    "</nope>", "<p>para<div>div</p>",
]


@given(st.lists(st.sampled_from(_TOKENS), max_size=40))
@settings(max_examples=500, deadline=None)
def test_tokenizer_matches_frozen_tokenizer(tokens):
    html = "".join(tokens)
    got, want = _fast_parse(html), _ref_fast_parse(html)
    assert got.to_html() == want.to_html()
    assert _shape(got) == _shape(want)


@given(st.text(alphabet="<>/=&;'\" abpliscrtdy-!#x1\n", max_size=120))
@settings(max_examples=500, deadline=None)
def test_tokenizer_matches_frozen_tokenizer_on_raw_text(html):
    got, want = _fast_parse(html), _ref_fast_parse(html)
    assert got.to_html() == want.to_html()
    assert _shape(got) == _shape(want)


def _shape(node: Node):
    """Tag, text, attrs and children."""
    return (node.tag, node.text, node.attrs,
            [_shape(c) for c in node.children])


@given(st.text(alphabet=" \t\r\n\f\v\xa0ab", max_size=30))
@settings(max_examples=300, deadline=None)
def test_guarded_whitespace_collapse_is_the_regex(text):
    assert markdown._collapse_ws(text) == markdown._WS_RE.sub(" ", text)


# ---------------------------------------------------------------------------
# deep nesting
# ---------------------------------------------------------------------------

def test_largest_text_fallback_takes_the_first_of_equals_on_deep_nesting():
    depth = 2000
    root = _fast_parse("<div>" * depth + "x" + "</div>" * depth
                       + "<section>y</section>")
    assert find_main_content(root) is root.children[0]


_DEEP = ("<html><body>" + "<div>" * 600 + "deep" + "</div>" * 600
         + "</body></html>")


def _with_deep_page(pages: pa.Table) -> tuple[list[str], list[str], pa.Table]:
    """``pages`` with the 600-deep page second: its urls, htmls and batch."""
    urls = pages.column("url").to_pylist()
    htmls = [h.decode() for h in pages.column("html").to_pylist()]
    urls.insert(1, "https://h0.example/deep.html")
    htmls.insert(1, _DEEP)
    batch = pa.Table.from_pydict(
        {"url": urls, "warc_ts": pa.nulls(len(urls), pa.timestamp("us")),
         "html": [h.encode() for h in htmls], "text": [""] * len(urls),
         "lang": [""] * len(urls)}, schema=PAGES)
    return urls, htmls, batch


def test_deeply_nested_page_is_one_error_row_in_its_batch():
    """A page nested 600 deep overflows the recursive markdown renderer;
    it becomes one error row and its batch neighbours are untouched."""
    pages = feature_corpus(n_hosts=1, pages_per_host=3, with_private=False)
    urls, htmls, batch = _with_deep_page(pages)
    rows = PageExtractor()(batch).to_pylist()
    errors = [i for i, r in enumerate(rows) if r["status_code"] != 200]
    assert errors == [1]
    assert rows[1]["status_code"] == 500
    assert "recursion" in rows[1]["error"]
    for i in (0, 2, 3):
        want = page_row(extract_page(urls[i], htmls[i]))
        assert {k: rows[i][k] for k in want} == want


# ---------------------------------------------------------------------------
# garbage collection
# ---------------------------------------------------------------------------

def test_kernels_leave_no_cyclic_garbage_and_restore_the_collector():
    """The batch kernels pause the cyclic collector around their page loop,
    which is sound only because a page leaves no reference cycle behind:
    with the collector off, extracting every page (the raising 600-deep
    one included) and running both kernels over a batch leaves nothing for
    ``gc.collect()`` to free. Each kernel restores the collector's prior
    state, whether or not a page raised."""
    urls, htmls, batch = _with_deep_page(feature_corpus(n_hosts=4))
    wave_kernel = WaveExtractor(frozenset({"h0.example"}), None, None, True)
    gc.collect()
    gc.disable()
    try:
        for url, html in zip(urls, htmls):
            try:
                extract_page(url, html)
            except RecursionError:
                assert html is _DEEP
        PageExtractor()(batch)
        wave_kernel(batch.select(["url", "html"]))
        assert not gc.isenabled()
        assert gc.collect() == 0
    finally:
        gc.enable()
    for kernel, pages in [(PageExtractor(), batch),
                          (wave_kernel, batch.select(["url", "html"]))]:
        out = kernel(pages)
        assert out.column("status_code").to_pylist().count(500) == 1
        assert gc.isenabled()
        out = kernel(pages.slice(2))
        assert set(out.column("status_code").to_pylist()) == {200}
        assert gc.isenabled()
